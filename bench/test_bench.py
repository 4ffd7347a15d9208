"""Tests of the benchmark itself: seeded inputs and failure counting.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""
import json
from pathlib import Path

import pytest

import checks
import gen
import run as bench


@pytest.fixture(scope='module')
def tables():
    return gen.load_tables(bench.SRC / 'lamit' / 'data')


def inputs(tables, seed, tmp: Path):
    """Every kind of generated input for one seed, as bytes by name."""
    tmp.mkdir()
    out = {}
    for stream, dur in (('utt0', 6.0), ('long0', 12.0)):
        utt = gen.make_utterance(gen.rng_for(seed, stream), tables, dur)
        for kind, path in gen.write_utterance(utt, tmp / stream).items():
            out[f'{stream}.{kind}'] = path.read_bytes()
    queries = gen.make_queries(gen.rng_for(seed, 'queries'), tables)
    out['queries'] = json.dumps([[q.kind, q.word, q.segments]
                                 for q in queries]).encode('utf-8')
    return out


def test_same_seed_same_bytes_other_seed_other_bytes(tables, tmp_path):
    a = inputs(tables, 7, tmp_path / 'a')
    b = inputs(tables, 7, tmp_path / 'b')
    c = inputs(tables, 8, tmp_path / 'c')
    assert a.keys() == b.keys() == c.keys()
    assert len(a) == 7
    for name in a:
        assert a[name] == b[name], name
        assert a[name] != c[name], name


def test_generated_inputs_are_well_formed(tables):
    utt = gen.make_utterance(gen.rng_for(3, 'utt0'), tables, 6.0)
    assert len(utt.samples) == 6 * gen.SR
    ends = [b for _, b, _ in utt.words]
    starts = [a for a, _, _ in utt.words]
    assert starts[0] == 0 and ends[-1] == 6.0
    assert starts[1:] == ends[:-1]          # contiguous Word tier
    labelled = [w for _, _, w in utt.words if w]
    assert labelled and set(labelled) <= {o for o, _ in tables.lexicon}
    times = [t for t, _, _ in utt.landmarks]
    assert times == sorted(set(times))      # strictly increasing


@pytest.fixture
def run_state(tmp_path):
    return bench.Run(0, False, tmp_path)


def matches_output(run_state):
    inp = bench.write_inputs(run_state, 5, 'utt', 6.0)
    out = run_state.work / 'm.csv'
    code, _, err = bench.call_cli(['match', '--wav', str(inp['wav']),
                                   '--textgrid', str(inp['textgrid']),
                                   '--out', str(out)])
    assert err is None and code == 0
    return out.read_text('utf-8'), inp['indices']


def test_corrupted_match_output_is_a_failure(run_state):
    text, indices = matches_output(run_state)
    words = run_state.words
    assert checks.matches_csv(text, indices, words) is None
    rows = text.split('\n')
    first = next(i for i, r in enumerate(rows)
                 if r.count(',') == 3 and r.split(',')[3] == '1'
                 and r.split(',')[1] != '<no evidence>')
    corrupt = {
        'unknown word': rows[:first] + [
            rows[first].replace(rows[first].split(',')[1], 'XYZZY', 1)] +
        rows[first + 1:],
        'missing word block': [r for r in rows
                               if not r.startswith(f'{indices[0]},')],
        'truncated': rows[:len(rows) // 2],
        'bad rank': rows[:first] + [rows[first][:-1] + '2'] +
        rows[first + 1:],
    }
    for what, lines in corrupt.items():
        assert checks.matches_csv('\n'.join(lines), indices, words), what
    before = len(run_state.failures)
    run_state.check(checks.matches_csv(corrupt['truncated'][0], indices,
                                       words))
    run_state.check(checks.same_bytes('repeated match', b'x' + text.encode(),
                                      text.encode()))
    assert len(run_state.failures) == before + 2


def test_golden_digest_mismatch_is_a_failure(run_state):
    data = b'phoneme,arpabet,count,percent\n'
    golden = {'stats.csv': checks.digest(data)}
    assert checks.against_golden(golden, 'stats.csv', data) is None
    assert checks.against_golden(golden, 'stats.csv', data + b' ')
    assert checks.against_golden({}, 'stats.csv', data)
    run_state.check(checks.against_golden(golden, 'stats.csv', b'x' + data))
    assert run_state.attempted == 1 and len(run_state.failures) == 1


def test_golden_pass_passes_and_catches_a_changed_digest(run_state):
    bench.golden_check(run_state)
    assert run_state.failures == []
    run_state.golden = dict(run_state.golden,
                            **{'lexi.TextGrid': checks.digest(b'other')})
    bench.golden_check(run_state)
    assert run_state.failures == [
        'lexi.TextGrid: output differs from the golden digest']


def test_self_retrieval_and_oracle_checks(tables):
    from lamit import access, features, lexicon
    lex = lexicon.load_lamit_lexicon(features.load_italian())
    orth, tokens = tables.lexicon[100]
    q = gen.Query('exact', orth, tuple(tables.bundles[a] for a in tokens))
    segs = bench.to_segments(q)
    results = access.cohort_match(segs, lex, k=10)
    assert checks.self_retrieval(orth, results) is None
    assert checks.oracle(segs, results, lex, access.score_candidate,
                         access.DistanceWeights()) is None
    shifted = [access.MatchResult(r.word, r.score + 0.25, r.cohort_rank)
               for r in results]
    assert checks.self_retrieval(orth, shifted)
    assert checks.oracle(segs, shifted, lex, access.score_candidate,
                         access.DistanceWeights())


def test_corrupted_output_in_a_timed_run_is_counted(run_state, monkeypatch):
    from lamit import access
    real = access.matches_csv
    monkeypatch.setattr(access, 'matches_csv', lambda m: real(m)[:-1])
    monkeypatch.setattr(bench, 'SHORT_ITEMS', 2)
    monkeypatch.setattr(bench, 'LONG_ITEMS', 1)
    bench.utterances(run_state, 0)
    assert run_state.attempted == 3
    assert len(run_state.failures) == 3
    assert run_state.samples == {'primary': [], 'secondary': []}
