#!/usr/bin/env python3
"""lamit benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload {cli_cold,utterances,lexical}
                         --seed N --seconds S --trace {0,1}
    python3 bench/run.py --record-golden

Run from the root of a checkout; the program is built from `src/`.
Every input comes from bench/gen.py and the seed.  The last stdout line
is one JSON object: correct, attempted, failed and the metrics listed in
BENCHMARK.json (end-to-end with --trace 0, per-layer with --trace 1).
A full record (environment, every metric, per-span table, failures) goes
to .bench_results/.  See bench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / 'src'
RESULTS = ROOT / '.bench_results'
WORKLOADS = ('cli_cold', 'utterances', 'lexical')

K = 10                   # candidates per word, the CLI default
SETUP_WORKERS = 5        # fresh processes timed per run for setup_s
GOLDEN_SEED = 20210706   # fixed inputs of the golden check pass
CLI_INPUTS = 3           # distinct 6 s utterances cycled by cli_cold
SHORT_ITEMS = 12         # 6 s utterances per utterances round
LONG_ITEMS = 2           # distinct 60 s recordings, one per round
ORACLE_SAMPLE = 8        # degraded and broad queries checked by brute force
SELF_SAMPLE_STEP = 14    # every 14th entry in the golden self-retrieval
CHILD_TIMEOUT = 60       # s; a cold CLI process takes about 1.5 s
PACE_EVERY = 25          # lexical queries per reference-task timing
# reference_task() median, in seconds, on the machine that defined the
# benchmark; it only sets the scale of the gated timings (see README)
REFERENCE_S = 2.5e-3

TEXT_COMMANDS = ('validate', 'stats', 'lexi', 'match_landmarks')
AUDIO_COMMANDS = ('landmarks', 'match_wav')


def fail(msg):
    print(f'bench: {msg}', file=sys.stderr)
    sys.exit(2)


if not (SRC / 'lamit' / 'cli.py').is_file():
    fail(f'no lamit source at {SRC / "lamit"}')
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    from lamit import access, cli, features, lexicon
    from lamit.features import FeatureBundle, FeatureValue
except ImportError as e:
    fail(f'cannot import lamit: {e}')

import checks  # noqa: E402
import gen  # noqa: E402
from pace import reference_task  # noqa: E402
from spans import Recorder, self_times  # noqa: E402


# --------------------------------------------------------------- the run

class Run:
    """State of one benchmark run: inputs, samples, tally and spans."""

    def __init__(self, seed, trace, work):
        self.seed, self.work = seed, work
        self.tables = gen.load_tables(SRC / 'lamit' / 'data')
        self.words = {orth for orth, _ in self.tables.lexicon}
        self.golden = checks.load_golden() \
            if checks.GOLDEN_PATH.exists() else {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.samples = {'primary': [], 'secondary': []}
        self.plain, self.traced = [], []   # primary latencies, trace on/off
        self.audio = {}                    # request id -> audio seconds
        self.rank1 = [0, 0]                # self-retrievals at rank 1, tried
        self.report = {}                   # report-only metrics
        self.rec = Recorder() if trace else None
        self.n_requests = 0
        self.reference = []                # reference_task() seconds

    def check(self, reason):
        """Count one checked operation; `reason` is None when it passed."""
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)

    def request(self, audio_s=0.0):
        """Next request id; every other request is traced in trace mode."""
        rid = self.n_requests
        self.n_requests += 1
        self.audio[rid] = audio_s
        return rid, self.rec is not None and rid % 2 == 0

    @contextlib.contextmanager
    def traced_call(self, rid, on):
        if not on:
            yield
            return
        self.rec.request = rid
        self.rec.install()
        sid = self.rec.open('request')
        try:
            yield
        finally:
            self.rec.close(sid)
            self.rec.uninstall()
            self.rec.request = None

    def pace(self):
        """Time one reference task, between requests."""
        t0 = time.perf_counter()
        reference_task()
        self.reference.append(time.perf_counter() - t0)

    def sample(self, cls, seconds, traced):
        self.samples[cls].append(seconds)
        if cls == 'primary' and self.rec is not None:
            (self.traced if traced else self.plain).append(seconds)


def call_cli(argv):
    """lamit.cli.main in this process; (exit code, stdout, error)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as e:       # a crash is a failed operation
        return None, out.getvalue(), f'{argv[0]}: {type(e).__name__}: {e}'
    return code, out.getvalue(), None


def write_inputs(run, seed, stream, duration):
    utt = gen.make_utterance(gen.rng_for(seed, stream), run.tables, duration)
    paths = gen.write_utterance(utt, run.work / stream)
    paths['duration'] = utt.duration
    paths['indices'] = [i for i, w in enumerate(utt.words) if w[2]]
    return paths


def cli_argv(cmd, inp, out: Path):
    """The lamit command line of one cli_cold command; outputs under out."""
    return {
        'validate': ['validate'],
        'stats': ['stats', '--out', str(out.with_suffix('.csv'))],
        'lexi': ['lexi', '--textgrid', str(inp['textgrid']),
                 '--out', str(out.with_suffix('.TextGrid'))],
        'landmarks': ['landmarks', '--wav', str(inp['wav']),
                      '--out', str(out)],
        'match_wav': ['match', '--wav', str(inp['wav']), '--textgrid',
                      str(inp['textgrid']), '--out',
                      str(out.with_suffix('.csv'))],
        'match_landmarks': ['match', '--landmarks', str(inp['landmarks']),
                            '--textgrid', str(inp['textgrid']), '--out',
                            str(out.with_suffix('.csv'))],
    }[cmd]


def outputs(cmd, out: Path, stdout: str) -> dict[str, bytes]:
    """What a command produced, by output name (missing files read b'')."""
    def read(p):
        return p.read_bytes() if p.exists() else b''
    if cmd == 'validate':
        return {'stdout': stdout.encode('utf-8')}
    if cmd == 'landmarks':
        return {'csv': read(out.with_suffix('.csv')),
                'TextGrid': read(out.with_suffix('.TextGrid'))}
    if cmd == 'lexi':
        return {'TextGrid': read(out.with_suffix('.TextGrid'))}
    return {'csv': read(out.with_suffix('.csv'))}


# -------------------------------------------------------------- workloads

def cli_cold(run, seconds):
    """Sequential cold `python -m lamit.cli` processes, one round of all
    six commands at a time in seeded order."""
    inputs = [write_inputs(run, run.seed, f'cli{i}', 6.0)
              for i in range(CLI_INPUTS)]
    # reference outputs from this process, for the same inputs
    refs = []
    for i, inp in enumerate(inputs):
        ref = {}
        for cmd in ('lexi', 'landmarks', 'match_wav', 'match_landmarks'):
            out = run.work / f'ref{i}_{cmd}'
            code, stdout, err = call_cli(cli_argv(cmd, inp, out))
            ok = err is None and code == 0
            ref[cmd] = outputs(cmd, out, stdout) if ok else {}
        refs.append(ref)
    # untimed warm-up: fills the bytecode cache of src/ and the file cache
    subprocess.run([sys.executable, '-m', 'lamit.cli', 'validate'],
                   env=run.env, cwd=ROOT, capture_output=True,
                   timeout=CHILD_TIMEOUT)
    order_rng = gen.rng_for(run.seed, 'cli-order')
    commands = TEXT_COMMANDS + AUDIO_COMMANDS
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        k = rnd % CLI_INPUTS
        for j in order_rng.permutation(len(commands)):
            cmd = commands[j]
            rid, traced = run.request(6.0 if cmd in AUDIO_COMMANDS else 0.0)
            out = run.work / f'out{rid}_{cmd}'
            argv = cli_argv(cmd, inputs[k], out)
            spans = run.work / f'spans{rid}.json'
            prog = ([str(BENCH / 'worker.py'), 'cli', str(spans)] if traced
                    else ['-m', 'lamit.cli'])
            run.reference.append(child_reference(run))
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, *prog, *argv],
                                      env=run.env, cwd=ROOT,
                                      capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                run.check(f'{cmd}: no exit within {CHILD_TIMEOUT} s')
                continue
            dt = time.perf_counter() - t0
            got = outputs(cmd, out, proc.stdout)
            if proc.returncode != 0:
                run.check(f'{cmd}: exit {proc.returncode}: '
                          f'{proc.stderr.strip()[-200:]}')
                continue
            if cmd == 'validate':
                reason = checks.validate_stdout(proc.stdout) or \
                    checks.against_golden(run.golden, 'validate.stdout',
                                          got['stdout'])
            elif cmd == 'stats':
                reason = checks.against_golden(run.golden, 'stats.csv',
                                               got['csv'])
            else:
                reason = next((r for r in (
                    checks.same_bytes(f'{cmd}.{name}', data,
                                      refs[k][cmd].get(name))
                    for name, data in got.items()) if r), None)
            run.check(reason)
            if reason is None:
                run.sample('primary' if cmd in TEXT_COMMANDS else 'secondary',
                           dt, traced)
            if traced and spans.exists():
                trace = json.loads(spans.read_text('utf-8'))
                run.rec.add(trace['spans'], rid)
        rnd += 1
    text, audio = run.samples['primary'], run.samples['secondary']
    run.report['cli_text_p50_s'] = (median(text), 's', f'n={len(text)}')
    run.report['cli_audio_p50_s'] = (median(audio), 's', f'n={len(audio)}')


def utterances(run, seconds):
    """lamit.cli.main(['match', '--wav', ...]) in this process over 6 s
    utterances and 60 s recordings, one long recording per round."""
    short = [write_inputs(run, run.seed, f'utt{i}', 6.0)
             for i in range(SHORT_ITEMS)]
    long = [write_inputs(run, run.seed, f'long{i}', 60.0)
            for i in range(LONG_ITEMS)]
    first: dict[Path, bytes] = {}
    order_rng = gen.rng_for(run.seed, 'utt-order')
    busy = audio_total = 0.0
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        items = short + [long[rnd % LONG_ITEMS]]
        for j in order_rng.permutation(len(items)):
            inp = items[j]
            rid, traced = run.request(inp['duration'])
            out = run.work / f'm{rid}.csv'
            argv = ['match', '--wav', str(inp['wav']), '--textgrid',
                    str(inp['textgrid']), '--out', str(out)]
            run.pace()
            with run.traced_call(rid, traced):
                t0 = time.perf_counter()
                code, _, err = call_cli(argv)
                dt = time.perf_counter() - t0
            data = out.read_bytes() if out.exists() else b''
            out.unlink(missing_ok=True)
            reason = err or (f'match: exit {code}' if code != 0 else None) \
                or checks.matches_csv(data.decode('utf-8'), inp['indices'],
                                      run.words, K) \
                or checks.same_bytes('repeated match', data,
                                     first.setdefault(inp['wav'], data))
            run.check(reason)
            if reason is None:
                busy += dt
                audio_total += inp['duration']
                run.sample('primary' if inp['duration'] < 30 else 'secondary',
                           dt, traced)
        rnd += 1
    six = run.samples['primary']
    run.report['utt_p50_ms'] = (median(six) * 1e3, 'ms', f'n={len(six)}')
    run.report['utt_tail_ms'] = tail(six, 1e3)
    run.report['audio_x'] = (audio_total / busy if busy else 0.0, 's/s',
                             f'{audio_total:g} s of audio')


def to_segments(query):
    return [access.EstimatedSegment(
        (0.1 * i, 0.1 * i + 0.05),
        FeatureBundle({f: FeatureValue(v) for f, v in seg.items()}))
        for i, seg in enumerate(query.segments)]


def lexical(run, seconds):
    """access.cohort_match over self-retrieval, degraded and broad
    queries built from the shipped lexicon, all of them per round."""
    inv = features.load_italian()
    lex = lexicon.load_lamit_lexicon(inv)
    queries = gen.make_queries(gen.rng_for(run.seed, 'queries'), run.tables)
    segs = [to_segments(q) for q in queries]
    first: dict[int, list] = {}
    order_rng = gen.rng_for(run.seed, 'lexical-order')
    busy = {'primary': 0.0, 'secondary': 0.0}
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        order = range(len(queries)) if rnd == 0 else \
            order_rng.permutation(len(queries))
        for i in order:
            q = queries[i]
            cls = 'secondary' if q.kind == 'broad' else 'primary'
            rid, traced = run.request()
            if rid % PACE_EVERY == 0:
                run.pace()
            with run.traced_call(rid, traced):
                t0 = time.perf_counter()
                try:
                    results, err = access.cohort_match(segs[i], lex, k=K), None
                except Exception as e:   # a crash is a failed operation
                    results, err = [], f'cohort_match: {e}'
                dt = time.perf_counter() - t0
            got = checks.ranked(results)
            reason = err or checks.same_bytes(
                'repeated query', repr(got).encode(),
                repr(first.setdefault(i, got)).encode())
            if reason is None and q.kind == 'exact':
                reason = checks.self_retrieval(q.word, results)
                run.rank1[0] += reason is None
                run.rank1[1] += 1
            run.check(reason)
            if reason is None:
                busy[cls] += dt
                run.sample(cls, dt, traced)
        rnd += 1
    exact = {q.word: first[i] for i, q in enumerate(queries)
             if q.kind == 'exact' and i in first}
    run.check(checks.against_golden(run.golden, 'self_retrieval.json',
                                    self_retrieval_bytes(run, exact)))
    pick = gen.rng_for(run.seed, 'oracle')
    for kind in ('degraded', 'broad'):
        idx = [i for i, q in enumerate(queries) if q.kind == kind]
        for i in pick.choice(idx, size=min(ORACLE_SAMPLE, len(idx)),
                             replace=False):
            results = access.cohort_match(segs[i], lex, k=K)
            run.check(checks.oracle(segs[i], results, lex,
                                    access.score_candidate,
                                    access.DistanceWeights(), K))
    full, broad = run.samples['primary'], run.samples['secondary']
    run.report['full_words_per_s'] = (
        len(full) / busy['primary'] if busy['primary'] else 0.0, '1/s',
        f'n={len(full)}')
    run.report['broad_words_per_s'] = (
        len(broad) / busy['secondary'] if busy['secondary'] else 0.0, '1/s',
        f'n={len(broad)}')
    both = full + broad
    run.report['query_p50_ms'] = (median(both) * 1e3, 'ms', f'n={len(both)}')
    run.report['query_tail_ms'] = tail(both, 1e3)


def self_retrieval_bytes(run, ranked_by_word) -> bytes:
    words = [o for o, _ in run.tables.lexicon if o in ranked_by_word]
    return json.dumps([[w, ranked_by_word[w]] for w in words],
                      ensure_ascii=False).encode('utf-8')


# ----------------------------------------------------------- golden pass

def golden_outputs(run):
    """Run the fixed golden inputs through every command, in this
    process, and return each output by golden key.  In trace mode these
    calls are traced too, so every layer has spans in every workload."""
    g6 = write_inputs(run, GOLDEN_SEED, 'golden6', 6.0)
    g60 = write_inputs(run, GOLDEN_SEED, 'golden60', 60.0)
    got = {'inputs': b''.join(p.read_bytes() for g in (g6, g60)
                              for p in (g['wav'], g['textgrid'],
                                        g['landmarks']))}
    jobs = [(cmd, g6, cmd) for cmd in TEXT_COMMANDS + AUDIO_COMMANDS] + \
        [('match_wav', g60, 'match_wav_60s')]
    for cmd, inp, name in jobs:
        rid, _ = run.request(inp['duration'] if cmd in AUDIO_COMMANDS
                             else 0.0)
        out = run.work / f'golden_{name}'
        with run.traced_call(rid, run.rec is not None):
            code, stdout, err = call_cli(cli_argv(cmd, inp, out))
        if err or code != 0:
            run.check(err or f'golden {cmd}: exit {code}')
            continue
        for part, data in outputs(cmd, out, stdout).items():
            got[f'{name}.{part}'] = data
    inv = features.load_italian()
    lex = lexicon.load_lamit_lexicon(inv)
    sample = {}
    for orth, tokens in run.tables.lexicon[::SELF_SAMPLE_STEP]:
        rid, _ = run.request()
        q = gen.Query('exact', orth,
                      tuple(run.tables.bundles[a] for a in tokens))
        with run.traced_call(rid, run.rec is not None):
            results = access.cohort_match(to_segments(q), lex, k=K)
        reason = checks.self_retrieval(orth, results)
        run.rank1[0] += reason is None
        run.rank1[1] += 1
        run.check(reason)
        sample[orth] = checks.ranked(results)
    got['self_retrieval_sample.json'] = self_retrieval_bytes(run, sample)
    return got


def golden_check(run):
    got = golden_outputs(run)
    run.check(checks.validate_stdout(
        got.get('validate.stdout', b'').decode('utf-8')))
    for key, data in got.items():
        run.check(checks.against_golden(run.golden, key, data))


def record_golden(work):
    """Write golden.json from the program as it stands."""
    run = Run(0, False, work)
    run.golden = {}
    got = golden_outputs(run)
    inv = features.load_italian()
    lex = lexicon.load_lamit_lexicon(inv)
    exact = {q.word: checks.ranked(access.cohort_match(to_segments(q), lex,
                                                       k=K))
             for q in gen.make_queries(gen.rng_for(0, 'queries'), run.tables)
             if q.kind == 'exact'}
    got['self_retrieval.json'] = self_retrieval_bytes(run, exact)
    if run.failures:
        fail('cannot record goldens: ' + '; '.join(run.failures))
    golden = {k: checks.digest(v) for k, v in sorted(got.items())}
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + '\n',
                                  encoding='utf-8')
    print(f'wrote {checks.GOLDEN_PATH} ({len(golden)} digests)')


# ---------------------------------------------------------------- metrics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs, scale):
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        return (0.0, 'ms', f'n={n}, too few samples')
    return (sorted(xs)[n - 11] * scale, 'ms',
            f'p{100.0 * (n - 10) / n:.1f}, n={n}')


def child_reference(run):
    """reference_task() seconds in a fresh process, like the ones that
    cli_cold times."""
    proc = subprocess.run([sys.executable, str(BENCH / 'worker.py'),
                           'reference'], env=run.env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=True)
    return float(proc.stdout)


def setup_probe(run):
    proc = subprocess.run([sys.executable, str(BENCH / 'worker.py'), 'setup'],
                          env=run.env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        fail(f'setup worker failed: {proc.stderr.strip()[-300:]}')
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(run, probes):
    """Per-layer metrics from the spans of the traced run."""
    spans = run.rec.spans
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for s, t in zip(spans, own):
        name = s[0]
        if name == 'access.cohort':
            name += '_broad' if s[6].get('broad') else '_full'
        by_name.setdefault(name, []).append((t, s))

    def mean_ms(name):
        xs = by_name.get(name, [])
        return sum(t for t, _ in xs) / len(xs) / 1e6 if xs else 0.0

    def total(name, key):
        return sum(s[6].get(key, 0) for _, s in by_name.get(name, []))

    audio_read = total('dsp.read_wav', 'audio_s')
    cues = {'6s': [0.0, 0.0], '60s': [0.0, 0.0]}   # self ns, audio s
    for t, s in by_name.get('access.cues', []):
        bucket = cues['60s' if run.audio.get(s[4], 0.0) >= 30 else '6s']
        bucket[0] += t
        bucket[1] += run.audio.get(s[4], 0.0)
    segments = total('access.word_match', 'segments')
    orphans = total('access.word_match', 'orphans')
    m = {
        'cli.import_s': (median([p['import_s'] for p in probes]), 's'),
        'features.load_inventory_ms': (mean_ms('features.load_inventory'),
                                       'ms'),
        'lexicon.load_lexicon_ms': (mean_ms('lexicon.load_lexicon'), 'ms'),
        'corpus.parse_corpus_ms': (mean_ms('corpus.parse_corpus'), 'ms'),
        'corpus.phoneme_frequencies_ms': (
            mean_ms('corpus.phoneme_frequencies'), 'ms'),
        'textgrid.parse_ms': (mean_ms('textgrid.parse'), 'ms'),
        'textgrid.serialize_ms': (mean_ms('textgrid.serialize'), 'ms'),
        'annotation.lexi_tier_ms': (mean_ms('annotation.lexi_tier'), 'ms'),
        'dsp.read_wav_ms': (mean_ms('dsp.read_wav'), 'ms'),
        'dsp.spectrogram_ms': (mean_ms('dsp.spectrogram'), 'ms'),
        'dsp.band_energies_ms': (mean_ms('dsp.band_energies'), 'ms'),
        'dsp.f0_ms': (mean_ms('dsp.f0'), 'ms'),
        'dsp.parameter_frames_ms': (mean_ms('dsp.parameter_frames'), 'ms'),
        'dsp.frames': (total('dsp.spectrogram', 'frames') / audio_read
                       if audio_read else 0.0, 'per_audio_s'),
        'landmarks.vowel_ms': (mean_ms('landmarks.vowel'), 'ms'),
        'landmarks.glide_ms': (mean_ms('landmarks.glide'), 'ms'),
        'landmarks.consonant_ms': (mean_ms('landmarks.consonant'), 'ms'),
        'landmarks.merge_ms': (mean_ms('landmarks.merge'), 'ms'),
    }
    for kind in ('vowel', 'glide', 'closure', 'release'):
        m[f'landmarks.n_{kind}'] = (
            total('landmarks.merge', f'n_{kind}') / audio_read
            if audio_read else 0.0, 'per_audio_s')
    for b in ('6s', '60s'):
        m[f'access.cues_ms_per_audio_s_{b}'] = (
            cues[b][0] / 1e6 / cues[b][1] if cues[b][1] else 0.0, 'ms/s')
    m.update({
        'access.word_match_ms': (mean_ms('access.word_match'), 'ms'),
        'access.segments': (segments, 'count'),
        'access.orphans': (orphans, 'count'),
        'access.orphan_ratio': (orphans / segments if segments else 0.0,
                                'ratio'),
        'access.cohort_full_ms': (mean_ms('access.cohort_full'), 'ms'),
        'access.cohort_broad_ms': (mean_ms('access.cohort_broad'), 'ms'),
        'access.rank1_ratio': (run.rank1[0] / run.rank1[1]
                               if run.rank1[1] else 0.0, 'ratio'),
        'trace.overhead_ms': ((median(run.traced) - median(run.plain)) * 1e3,
                              'ms'),
        'trace.spans': (len(spans), 'count'),
        'trace.errors': (sum(1 for s in spans if s[5]), 'count'),
    })
    table = {name: {'calls': len(xs),
                    'self_ms': sum(t for t, _ in xs) / 1e6,
                    'errors': sum(1 for _, s in xs if s[5])}
             for name, xs in sorted(by_name.items())}
    return m, table


def environment():
    try:
        nproc = subprocess.run(['nproc'], capture_output=True, text=True,
                               timeout=10).stdout.strip()
    except OSError:
        nproc = str(os.cpu_count())
    cpu = None
    try:
        with open('/proc/cpuinfo', encoding='utf-8') as f:
            cpu = next((ln.split(':', 1)[1].strip() for ln in f
                        if ln.startswith('model name')), None)
    except OSError:
        pass
    commit = None
    if (ROOT / '.git').exists():
        proc = subprocess.run(['git', '-C', str(ROOT), 'rev-parse', 'HEAD'],
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or None
    import scipy
    return {'nproc': nproc, 'cpu': cpu,
            'python': platform.python_version(), 'numpy': np.__version__,
            'scipy': scipy.__version__, 'commit': commit}


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == 'cli_cold' \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ------------------------------------------------------------------- main

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    p.add_argument('--workload', choices=WORKLOADS)
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--seconds', type=float, default=10.0)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    p.add_argument('--record-golden', action='store_true',
                   help='write bench/golden.json from the current program')
    args = p.parse_args(argv)
    if not args.record_golden and args.workload is None:
        p.error('--workload is required')
    (ROOT / '.bench_work').mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / '.bench_work'))
    try:
        if args.record_golden:
            record_golden(work)
            return
        run = Run(args.seed, bool(args.trace), work)
        probes = [setup_probe(run) for _ in range(SETUP_WORKERS)]
        {'cli_cold': cli_cold, 'utterances': utterances,
         'lexical': lexical}[args.workload](run, args.seconds)
        rss = peak_rss_mb(args.workload)
        golden_check(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = median([pr['setup_s'] for pr in probes])
    failed = len(run.failures)
    # gated timings are scaled to the reference machine speed, so that a
    # slow phase of the shared machine does not read as a regression
    slowdown = median(run.reference) / REFERENCE_S
    e2e = {
        'setup_s': (setup_s / slowdown, 's'),
        'peak_rss_mb': (rss, 'MB'),
        'primary_p50_ms': (
            median(run.samples['primary']) * 1e3 / slowdown, 'ms'),
        'secondary_p50_ms': (
            median(run.samples['secondary']) * 1e3 / slowdown, 'ms'),
    }
    record = {'workload': args.workload, 'seed': args.seed,
              'seconds': args.seconds, 'trace': args.trace,
              'environment': environment(), 'attempted': run.attempted,
              'failed': failed, 'failures': run.failures[:20],
              'samples': {k: len(v) for k, v in run.samples.items()},
              'setup_workers': probes}
    print(f'workload {args.workload} seed {args.seed} '
          f'seconds {args.seconds:g} trace {args.trace}')
    print('environment ' + json.dumps(record['environment']))
    report = {'setup_s': (setup_s, 's', f'median of {len(probes)} workers'),
              'peak_rss_mb': (rss, 'MB', ''),
              'machine_slowdown': (slowdown, 'x', f'{len(run.reference)} '
                                   'reference tasks'),
              'primary_p50_ms': (median(run.samples['primary']) * 1e3,
                                 'ms', 'as measured'),
              'secondary_p50_ms': (median(run.samples['secondary']) * 1e3,
                                   'ms', 'as measured'),
              'error_rate': (failed / run.attempted if run.attempted else 1.0,
                             'ratio', f'{failed}/{run.attempted}'),
              **run.report}
    for name, (value, unit, note) in report.items():
        print(f'  {name:<28} {value:14.6f} {unit:<6} {note}')
    for name, (value, unit) in e2e.items():
        if name != 'peak_rss_mb':
            print(f'  {name + " (gated)":<28} {value:14.6f} {unit:<6} '
                  'at reference speed')
    if args.trace:
        layers, table = layer_metrics(run, probes)
        for name, (value, unit) in layers.items():
            print(f'  {name:<36} {value:14.6f} {unit}')
        metrics = layers
        record['spans_table'] = table
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f'spans-{args.workload}-seed{args.seed}.json').write_text(
            json.dumps({'requests': run.audio, 'spans': run.rec.spans}),
            encoding='utf-8')
    else:
        metrics = e2e
    record['metrics'] = {k: {'value': v, 'unit': u}
                         for k, (v, u) in {**e2e, **metrics}.items()}
    record['report'] = {k: {'value': v, 'unit': u, 'note': n}
                        for k, (v, u, n) in report.items()}
    for reason in run.failures[:5]:
        print(f'  FAILED: {reason}')
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f'{args.workload}-seed{args.seed}-trace{args.trace}.json') \
        .write_text(json.dumps(record, indent=1, ensure_ascii=False),
                    encoding='utf-8')
    print(json.dumps({'correct': failed == 0, 'attempted': run.attempted,
                      'failed': failed,
                      'metrics': {k: {'value': v, 'unit': u}
                                  for k, (v, u) in metrics.items()}}))


if __name__ == '__main__':
    main()
