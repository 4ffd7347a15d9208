#!/usr/bin/env python3
"""Direct timings of the stages quoted as the baseline in ROADMAP item 1.

    python3 bench/baseline.py [--seed N] [--repeat 3]

Prints best and median of --repeat runs for: `import lamit.cli` in a
fresh process, parameter_frames (and its estimate_f0 part), detect_all,
cues_to_bundles and match_in_word_intervals on a generated 6 s utterance
and a 60 s recording, and self-retrieval of every lexicon entry (k=3,
as the matcher acceptance test does it).  Inputs come from bench/gen.py.
"""
import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / 'src'
sys.path.insert(0, str(SRC))

import gen  # noqa: E402
from lamit import access, dsp, features, landmarks, lexicon  # noqa: E402
from lamit.textgrid import parse_textgrid  # noqa: E402
from run import to_segments  # noqa: E402


def timed(fn, repeat):
    times, out = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times), out


def main():
    p = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--repeat', type=int, default=3)
    args = p.parse_args()
    rows = []

    def row(name, best, med):
        rows.append((name, best, med))
        print(f'{name:<44} best {best * 1e3:9.1f} ms  '
              f'median {med * 1e3:9.1f} ms', flush=True)

    imports = []
    for _ in range(args.repeat):
        proc = subprocess.run(
            [sys.executable, '-c', 'import time; t = time.perf_counter(); '
             'import lamit.cli; print(time.perf_counter() - t)'],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, check=True)
        imports.append(float(proc.stdout))
    row('import lamit.cli (fresh process)', min(imports),
        statistics.median(imports))

    tables = gen.load_tables(SRC / 'lamit' / 'data')
    inv = features.load_italian()
    lex = lexicon.load_lamit_lexicon(inv)
    for dur in (6.0, 60.0):
        utt = gen.make_utterance(gen.rng_for(args.seed, f'baseline{dur:g}'),
                                 tables, dur)
        audio = dsp.AudioBuffer(utt.samples / 32768.0, gen.SR)
        doc = parse_textgrid(gen.textgrid_text(utt.duration, utt.words))
        label = f'{dur:g} s'
        *t, params = timed(lambda: dsp.parameter_frames(audio), args.repeat)
        row(f'parameter_frames, {label}', *t)
        times = params.tracks.times
        *t, _ = timed(lambda: dsp.estimate_f0(audio, times), args.repeat)
        row(f'  of which estimate_f0, {label}', *t)
        *t, seq = timed(lambda: landmarks.detect_all(audio), args.repeat)
        row(f'detect_all, {label}', *t)
        *t, segs = timed(lambda: access.cues_to_bundles(seq, params),
                         args.repeat)
        row(f'cues_to_bundles, {label}', *t)
        *t, _ = timed(lambda: access.match_in_word_intervals(doc, segs, lex),
                      args.repeat)
        row(f'match_in_word_intervals, {label}', *t)

    queries = [q for q in gen.make_queries(gen.rng_for(args.seed, 'baseline'),
                                           tables) if q.kind == 'exact']
    segments = [to_segments(q) for q in queries]
    *t, _ = timed(lambda: [access.cohort_match(s, lex, k=3)
                           for s in segments], args.repeat)
    row(f'self-retrieval of all {len(queries)} entries', *t)


if __name__ == '__main__':
    main()
