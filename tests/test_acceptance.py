"""Acceptance suite: one test per release criterion, stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""
import itertools
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lamit.access import (DistanceWeights, EstimatedSegment, cohort_match,
                          score_candidate)
from lamit.annotation import generate_lexi_tier
from lamit.config import AnalysisConfig
from lamit.corpus import parse_transcription, phoneme_frequencies
from lamit.dsp import AudioBuffer, compute_spectrogram, estimate_f0
from lamit.features import (FeatureBundle, MINUS, PLUS, MajorClass,
                            classify_major, distinguishing_features,
                            features_of)
from lamit.landmarks import LandmarkKind, Manner, detect_all
from lamit.lexicon import expand_word, load_lexicon, serialize_lexicon
from lamit.textgrid import parse_textgrid, serialize_textgrid

import synth

FIXTURES = Path(__file__).parent / 'fixtures'

# published reference: the LaMIT frequency column, percent
PUBLISHED_PCT = {
    'a': 12.99, 'e': 9.68, 'i': 9.03, 'o': 8.2, 'n': 7.17, 'r': 6.64,
    't': 5.10, 'l': 4.96, 's': 4.24, 'd': 3.71, 'k': 2.95, 'p': 2.80,
    'u': 2.66, 'm': 2.49, 'ɛ': 2.28, 'v': 1.89, 'j': 1.87, 'b': 1.03,
    'ɔ': 1.13, 'w': 0.86, 'f': 0.89, 'dʒ': 0.74, 'tʃ': 0.72, 'g': 0.72,
    'ts': 0.29, 'z': 0.14, 'ʃ': 0.12, 'ʎ': 0.02, 'dz': 0.02, 'ɲ': 0.02,
    'll': 0.96, 'tt': 0.82, 'ss': 0.43, 'tsts': 0.31, 'kk': 0.31,
    'dʒdʒ': 0.26, 'nn': 0.24, 'ʎʎ': 0.19, 'pp': 0.17, 'rr': 0.14,
    'bb': 0.12, 'ff': 0.12, 'ɲɲ': 0.12, 'ʃʃ': 0.12, 'mm': 0.1,
    'dzdz': 0.1, 'tʃtʃ': 0.07, 'vv': 0.02, 'dd': 0.02, 'gg': 0.0,
}


def report(n, detail):
    print(f'criterion {n}: PASS ({detail})', file=sys.stderr)


def test_criterion_1_frequency_reproduction(lamit_corpus, italian):
    t0 = time.perf_counter()
    table = phoneme_frequencies(lamit_corpus, italian)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for ipa, want in PUBLISHED_PCT.items():
        have = table.percent(italian.phoneme(ipa))
        assert abs(have - want) <= 0.15, \
            f'/{ipa}/: {have:.2f} vs published {want}'
        worst = max(worst, abs(have - want))
    # the three spot values called out explicitly
    assert table.percent(italian.phoneme('a')) == pytest.approx(12.99,
                                                                abs=0.15)
    assert table.percent(italian.phoneme('ll')) == pytest.approx(0.96,
                                                                 abs=0.15)
    assert table.percent(italian.phoneme('ɛ')) == pytest.approx(2.28,
                                                                abs=0.15)
    assert elapsed < 1.0
    report(1, f'50 phonemes within 0.15 points, worst {worst:.2f}, '
              f'{elapsed * 1000:.0f} ms')


def test_criterion_2_inventory_distinctness(italian):
    pairs = 0
    for a, b in itertools.combinations(italian.singletons(), 2):
        assert distinguishing_features(italian, a, b), \
            f'{a.arpabet} vs {b.arpabet}'
        pairs += 1
    assert pairs == 30 * 29 // 2
    sizes = {MajorClass.VOWEL: 0, MajorClass.GLIDE: 0,
             MajorClass.CONSONANT: 0}
    for p in italian.singletons():
        sizes[classify_major(italian.bundles[p.ipa])] += 1
    assert (sizes[MajorClass.VOWEL], sizes[MajorClass.GLIDE],
            sizes[MajorClass.CONSONANT]) == (7, 2, 21)
    gems = italian.geminates()
    assert len(gems) == 20
    for g in gems:
        assert features_of(italian, g) == \
            features_of(italian, g.singleton_base)
    report(2, f'{pairs} pairs distinct, partition 7/2/21, '
              '20 geminates inherit')


def test_criterion_3_lexicon_resolution(lamit_lexicon):
    assert len(lamit_lexicon) == 563
    for entry in lamit_lexicon.entries.values():
        assert entry.phonemes, entry.orthography
        assert sum(t.stressed for t in entry.phonemes) <= 1, \
            entry.orthography
    report(3, '563 entries, zero unknown labels, stress unique')


def test_criterion_4_lexi_golden(lamit_lexicon, italian):
    sent = parse_transcription(
        "36.\t'mamma 'e ppa'pa 'tti 'vɔʎʎono 'bɛne", italian)
    doc = parse_textgrid(
        (FIXTURES / 'sentence36_words.TextGrid').read_bytes())
    word_tier = doc.tier('Word')
    tier = generate_lexi_tier(word_tier, lamit_lexicon, sent)
    labels = [iv.label for iv in tier.items if iv.label]
    assert labels == [
        'M', 'AA1', 'MM', 'AA',
        'EY1',
        'PP', 'AA', 'P', 'AA1',
        'TT', 'IY1',
        'V', 'AO1', 'LHLH', 'OW', 'N', 'OW',
        'B', 'EH1', 'N', 'EY']
    # doubling applied to papà and ti exactly
    assert labels[5] == 'PP' and labels[9] == 'TT'
    # word spans exactly tiled: shared boundaries, exact ends
    phoneme_ivs = [iv for iv in tier.items if iv.label]
    for w in word_tier.labelled():
        inside = [iv for iv in phoneme_ivs
                  if w.t_start <= iv.t_start and iv.t_end <= w.t_end]
        assert inside[0].t_start == w.t_start
        assert inside[-1].t_end == w.t_end
        for a, b in zip(inside, inside[1:]):
            assert a.t_end == b.t_start
    report(4, '21 labels match, doubling on PP/TT, spans tile exactly')


def test_criterion_5_landmark_properties():
    t0 = time.perf_counter()
    cfg = AnalysisConfig()

    # (a) gain invariance
    audio, (t_cl, t_rel) = synth.vcv_stop()
    outs = []
    for gain in (0.1, 10.0):
        scaled = AudioBuffer(audio.samples * gain, audio.sample_rate)
        outs.append(detect_all(scaled, cfg))
    assert [(lm.time, lm.kind, lm.manner) for lm in outs[0].items] == \
        [(lm.time, lm.kind, lm.manner) for lm in outs[1].items]
    for a, b in zip(outs[0].items, outs[1].items):
        assert abs(a.strength - b.strength) < 1e-6

    # (b) CV: exactly one release then one vowel, within 20 ms
    cv, release_t, peak_t = synth.cv_syllable()
    seq = detect_all(cv, cfg)
    rel = [lm for lm in seq.items if lm.kind is LandmarkKind.RELEASE]
    vow = [lm for lm in seq.items if lm.kind is LandmarkKind.VOWEL]
    assert len(rel) == 1 and len(vow) == 1
    assert rel[0].time < vow[0].time
    assert abs(rel[0].time - release_t) <= 0.02
    assert abs(vow[0].time - peak_t) <= 0.02

    # (c) VCV with a 60 ms stop gap
    seq = detect_all(audio, cfg)
    cons = [lm for lm in seq.items
            if lm.kind in (LandmarkKind.CLOSURE, LandmarkKind.RELEASE)]
    assert [lm.kind for lm in cons] == [LandmarkKind.CLOSURE,
                                        LandmarkKind.RELEASE]
    assert abs(cons[0].time - t_cl) <= 0.02
    assert abs(cons[1].time - t_rel) <= 0.02
    assert all(lm.manner is Manner.NONCONTINUANT for lm in cons)

    # (d) silence
    assert detect_all(synth.buf(synth.silence(0.5)), cfg).items == ()

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, f'gain-invariant, CV/VCV/silence as specified, '
              f'{elapsed:.2f} s')


def test_criterion_6_matcher_oracle(lamit_lexicon, italian):
    t0 = time.perf_counter()
    w = DistanceWeights()
    rng = random.Random(1234)
    all_lines = [ln for ln in
                 serialize_lexicon(lamit_lexicon).splitlines() if ln]

    def random_segments(lex):
        orth = rng.choice(sorted(lex.entries))
        segments = []
        for i, b in enumerate(expand_word(lex, orth)):
            cells = dict(b)
            for f in list(cells):
                roll = rng.random()
                if f in ('vowel', 'glide', 'cons'):
                    continue
                if roll < 0.25:
                    del cells[f]
                elif roll < 0.35 and cells[f] in (PLUS, MINUS):
                    cells[f] = MINUS if cells[f] is PLUS else PLUS
            t = 0.05 + 0.1 * i
            segments.append(EstimatedSegment((t - 0.04, t + 0.04),
                                             FeatureBundle(cells)))
        if rng.random() < 0.3 and len(segments) > 1:
            segments.pop()
        return segments

    for trial in range(200):
        sub = load_lexicon('\n'.join(rng.sample(all_lines, 50)), italian)
        segments = random_segments(sub)
        mine = cohort_match(segments, sub, w, k=10)
        brute = sorted(
            (score_candidate(segments,
                             [italian.bundles[t.phoneme.ipa]
                              for t in e.phonemes], w, italian), o)
            for o, e in sub.entries.items())[:10]
        assert [r.score for r in mine] == pytest.approx(
            [s for s, _ in brute]), f'trial {trial}'
        groups = {}
        for r in mine:
            groups.setdefault(round(r.score, 9), set()).add(r.word)
        for s, o in brute:
            assert o in groups[round(s, 9)], f'trial {trial}: {o}'

    failures = []
    for orth in lamit_lexicon.entries:
        segments = [
            EstimatedSegment((0.1 * i, 0.1 * i + 0.05), FeatureBundle(b))
            for i, b in enumerate(expand_word(lamit_lexicon, orth))]
        results = cohort_match(segments, lamit_lexicon, w, k=3)
        hit = next((r for r in results if r.word == orth), None)
        if hit is None or hit.cohort_rank != 1 or hit.score != 0.0:
            failures.append(orth)
    assert not failures, failures
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, f'200 oracle trials equal, 563 self-retrievals at rank 1, '
              f'{elapsed:.1f} s')


def test_criterion_7_textgrid_roundtrip():
    fixtures = sorted(FIXTURES.glob('*.TextGrid'))
    assert fixtures, 'no shipped fixtures'
    for path in fixtures:
        text = path.read_text('utf-8')
        doc1 = parse_textgrid(text)
        text2 = serialize_textgrid(doc1)
        doc2 = parse_textgrid(text2)
        assert doc1.duration == doc2.duration
        assert [t.name for t in doc1.tiers] == [t.name for t in doc2.tiers]
        for a, b in zip(doc1.tiers, doc2.tiers):
            assert a.items == b.items, path.name
        assert serialize_textgrid(doc2) == text2
    report(7, f'{len(fixtures)} fixtures value-identical after '
              'parse-serialize-parse')


def test_criterion_8_dsp_numeric():
    # dB-shift linearity within 1e-6 dB
    audio, _ = synth.vowel_rise_fall(0.3)
    s1 = compute_spectrogram(audio, 0.025, 0.005)
    s2 = compute_spectrogram(AudioBuffer(audio.samples * 10.0, 16000),
                             0.025, 0.005)
    mask = s1.frames > -90
    assert np.max(np.abs(s2.frames[mask] - s1.frames[mask] - 20.0)) < 1e-6

    # 1 kHz tone bin localization against an independent DFT oracle
    sr = 16000
    t = np.arange(sr) / sr
    tone = AudioBuffer(0.5 * np.sin(2 * np.pi * 1000 * t), sr)
    spec = compute_spectrogram(tone, 0.025, 0.010)
    frame = tone.samples[:400] * np.hanning(400)
    oracle = [abs(sum(frame[m] * np.exp(-2j * np.pi * kk * m / 400)
                      for m in range(400))) for kk in range(201)]
    k_oracle = int(np.argmax(oracle))
    peaks = np.argmax(spec.frames, axis=1)
    assert np.all(np.abs(peaks - k_oracle) <= 1)

    # 120 Hz pulse train within 2 Hz
    pulses = synth.buf(synth.pulse_train(0.5, f0=120.0))
    f0 = estimate_f0(pulses, np.arange(0.05, 0.45, 0.01))
    voiced = f0[~np.isnan(f0)]
    assert len(voiced) > 0
    assert np.all(np.abs(voiced - 120.0) <= 2.0)
    report(8, 'dB shift < 1e-6, tone within 1 bin, F0 within 2 Hz')
