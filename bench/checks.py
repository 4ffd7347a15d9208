"""Output checks: golden digests, well-formedness and the matcher oracle.

Every check returns None when the output is right and a one-line reason
when it is not; the caller counts a reason as a failed operation.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name('golden.json')


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text('utf-8'))


def against_golden(golden: dict, key: str, data: bytes):
    want = golden.get(key)
    if want is None:
        return f'{key}: no golden digest recorded'
    if digest(data) != want:
        return f'{key}: output differs from the golden digest'
    return None


def same_bytes(what: str, got: bytes, want: bytes):
    return None if got == want else f'{what}: output differs from reference'


def validate_stdout(text: str):
    if '4/4 suites passed' not in text:
        return 'validate: did not report 4/4 suites passed'
    return None


def matches_csv(text: str, indices: list[int], lexicon: set[str],
                k: int = 10):
    """A `match` CSV: one block per labelled word interval (`indices`
    into the Word tier), in order, holding `<no evidence>` or 1..k
    lexicon words with non-decreasing scores and competition ranks."""
    lines = text.split('\n')
    if lines[0] != 'word_interval_index,candidate,score,rank' or \
            lines[-1] != '':
        return 'matches.csv: bad header or missing final newline'
    blocks: dict[int, list] = {}
    order = []
    for ln in lines[1:-1]:
        cells = ln.split(',')
        if len(cells) != 4 or not cells[0].isdigit():
            return f'matches.csv: malformed row {ln!r}'
        idx = int(cells[0])
        if idx not in blocks:
            order.append(idx)
            blocks[idx] = []
        blocks[idx].append(cells[1:])
    if order != list(indices):
        return (f'matches.csv: {len(order)} word blocks for '
                f'{len(indices)} labelled intervals')
    for idx in order:
        rows = blocks[idx]
        if rows == [['<no evidence>', '', '']]:
            continue
        if not 1 <= len(rows) <= k:
            return f'matches.csv: {len(rows)} candidates for word {idx}'
        prev_score, prev_rank = None, 0
        for pos, (word, score, rank) in enumerate(rows, 1):
            try:
                s, r = float(score), int(rank)
            except ValueError:
                return f'matches.csv: malformed score or rank for word {idx}'
            if word not in lexicon:
                return f'matches.csv: {word!r} is not in the lexicon'
            want = prev_rank if prev_score is not None and s == prev_score \
                else pos
            if (prev_score is not None and s < prev_score) or r != want:
                return f'matches.csv: ranking broken for word {idx}'
            prev_score, prev_rank = s, r
    return None


def ranked(results) -> list:
    """A cohort_match result as plain data, for digests and comparison."""
    return [[r.word, r.score, r.cohort_rank] for r in results]


def self_retrieval(word: str, results):
    hit = next((r for r in results if r.word == word), None)
    if hit is None or hit.cohort_rank != 1 or hit.score != 0.0:
        return f'self-retrieval of {word}: not at rank 1 with score 0'
    return None


def oracle(segments, results, lex, score_candidate, weights, k: int = 10):
    """Compare cohort_match results with brute-force scoring of every
    entry: equal score lists, and every brute-force top-k word inside
    the result group of its score (ties may be ordered either way)."""
    inv = lex.inventory
    brute = sorted(
        (score_candidate(segments, [inv.bundles[t.phoneme.ipa]
                                    for t in e.phonemes], weights, inv), o)
        for o, e in lex.entries.items())[:k]
    got = [r.score for r in results]
    if len(got) != len(brute) or any(abs(a - s) > 1e-9
                                     for a, (s, _) in zip(got, brute)):
        return 'cohort_match: scores differ from the brute-force oracle'
    groups: dict[float, set] = {}
    for r in results:
        groups.setdefault(round(r.score, 9), set()).add(r.word)
    boundary = brute[-1][0]
    for s, o in brute:
        if o not in groups.get(round(s, 9), ()) and abs(s - boundary) > 1e-9:
            return f'cohort_match: {o} missing from the ranked list'
    return None
