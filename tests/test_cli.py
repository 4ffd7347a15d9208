import codecs
import math
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile

from lamit.cli import data_dir, main
from lamit.config import AnalysisConfig, ConfigError, check_config, \
    parse_config_values
from lamit.dsp import write_wav
from lamit.landmarks import CSV_HEADER
from lamit.textgrid import (AnnotationDocument, Interval, IntervalTier,
                            Point, PointTier, parse_textgrid,
                            serialize_textgrid)

import synth


def run(*argv):
    return main(list(argv))


def word_doc_path(tmp_path, words, dur=0.5, name='words.TextGrid'):
    items = [Interval(i * dur, (i + 1) * dur, w)
             for i, w in enumerate(words)]
    doc = AnnotationDocument(len(words) * dur, [IntervalTier('Word', items)])
    path = tmp_path / name
    path.write_text(serialize_textgrid(doc), encoding='utf-8')
    return path


# ---------------------------------------------------------------- stats

def test_stats_reproduces_published_table(tmp_path, capsys):
    out = tmp_path / 'freq.csv'
    assert run('stats', '--out', str(out)) == 0
    lines = out.read_text('utf-8').strip().split('\n')
    assert lines[0] == 'phoneme,arpabet,count,percent'
    row_a = next(ln for ln in lines if ln.startswith('a,AA,'))
    pct = float(row_a.split(',')[3])
    assert abs(pct - 12.99) <= 0.15


def test_stats_table_rows_follow_csv_order(tmp_path, capsys):
    """The console table and the CSV list tied counts in one order."""
    out = tmp_path / 'freq.csv'
    assert run('stats', '--out', str(out)) == 0
    csv_rows = [ln.split(',') for ln in
                out.read_text('utf-8').strip().split('\n')[1:]]
    table = capsys.readouterr().out.strip().split('\n')
    assert table[0].split() == ['phoneme', 'arpabet', 'count', 'percent']
    assert table[-1].split()[0] == 'total'
    assert [ln.split() for ln in table[1:-1]] == csv_rows
    counts = [int(r[2]) for r in csv_rows]
    assert len(set(counts)) < len(counts)       # the corpus has ties


def test_stats_total_row_of_a_corpus_without_tokens(tmp_path, capsys):
    """The total row reads 100.00 over the shipped corpus, and 0.00 over
    a corpus without tokens, whose CSV is only its header."""
    assert run('stats', '--out', str(tmp_path / 'freq.csv')) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[::2] == \
        ['total', '100.00']
    src, out = tmp_path / 'zero.tsv', tmp_path / 'zero.csv'
    src.write_text("1.\t'\n", encoding='utf-8')
    assert run('stats', '--corpus', str(src), '--out', str(out)) == 0
    assert out.read_text('utf-8') == 'phoneme,arpabet,count,percent\n'
    assert capsys.readouterr().out.splitlines()[-1].split() == \
        ['total', '0', '0.00']


def test_stats_missing_file_exits_2(capsys):
    assert run('stats', '--corpus', 'no-such-file.tsv') == 2


def test_stats_bad_corpus_exits_1(tmp_path, capsys):
    src = tmp_path / 'bad.tsv'
    src.write_text("1.\t'mamma\n2.\t'maxa\n", encoding='utf-8')
    assert run('stats', '--corpus', str(src)) == 1
    assert_one_line_error(capsys, 'error: corpus: line 2: ',
                          "unknown symbol 'x'")


def test_stats_single_sentence_normalizes(tmp_path):
    src = tmp_path / 'one.tsv'
    src.write_text("1.\t'mamma 'bɛne\n", encoding='utf-8')
    out = tmp_path / 'freq.csv'
    assert run('stats', '--corpus', str(src), '--out', str(out)) == 0
    rows = out.read_text('utf-8').strip().split('\n')[1:]
    assert sum(float(r.split(',')[3]) for r in rows) == pytest.approx(
        100.0, abs=0.05)


# ----------------------------------------------------------------- lexi

def test_lexi_sentence_36(tmp_path):
    tg = word_doc_path(tmp_path, ['MAMMA', 'E', 'PAPÀ', 'TI',
                                  'VOGLIONO', 'BENE'])
    trans = tmp_path / 'trans.tsv'
    trans.write_text("36.\t'mamma 'e ppa'pa 'tti 'vɔʎʎono 'bɛne\n",
                     encoding='utf-8')
    out = tmp_path / 'out.TextGrid'
    code = run('lexi', '--textgrid', str(tg), '--transcription', str(trans),
               '--sentence', '36', '--out', str(out))
    assert code == 0
    doc = parse_textgrid(out.read_bytes())
    lexi = doc.tier('LEXI')
    labels = [iv.label for iv in lexi.items if iv.label]
    assert labels == ['M', 'AA1', 'MM', 'AA', 'EY1', 'PP', 'AA', 'P', 'AA1',
                      'TT', 'IY1', 'V', 'AO1', 'LHLH', 'OW', 'N', 'OW',
                      'B', 'EH1', 'N', 'EY']
    # the Word tier of the input is untouched
    assert [iv.label for iv in doc.tier('Word').items] == \
        ['MAMMA', 'E', 'PAPÀ', 'TI', 'VOGLIONO', 'BENE']


def test_lexi_on_its_own_output_is_byte_identical(tmp_path):
    # the LEXI tier is replaced in place, not stacked on the old one
    fixture = Path(__file__).parent / 'fixtures' / 'word_lexi.TextGrid'
    once, twice = tmp_path / 'once.TextGrid', tmp_path / 'twice.TextGrid'
    assert run('lexi', '--textgrid', str(fixture), '--out', str(once)) == 0
    assert run('lexi', '--textgrid', str(once), '--out', str(twice)) == 0
    assert twice.read_bytes() == once.read_bytes()
    doc = parse_textgrid(once.read_bytes())
    assert [t.name for t in doc.tiers] == ['Word', 'LEXI']


def test_lexi_bad_transcription_exits_1(tmp_path, capsys):
    tg = word_doc_path(tmp_path, ['MAMMA'])
    trans = tmp_path / 'trans.tsv'
    trans.write_text("# header\n1.\t'mamma\n2.\t'maxa\n",
                     encoding='utf-8')
    code = run('lexi', '--textgrid', str(tg), '--transcription', str(trans),
               '--sentence', '1', '--out', str(tmp_path / 'o.TextGrid'))
    assert code == 1
    assert_one_line_error(capsys, 'transcription', 'line 3',
                          "unknown symbol 'x'")
    assert not (tmp_path / 'o.TextGrid').exists()


def test_lexi_refuses_a_sentence_initial_doubling(tmp_path, capsys):
    """The library's doubling rule: a doubling needs a trigger word
    before it.  A resolution error: exit 3, one line, no output file."""
    tg = word_doc_path(tmp_path, ['BASSO', 'BENE'])
    trans = tmp_path / 'trans.tsv'
    trans.write_text("1.\tbb'asso 'bɛne\n", encoding='utf-8')
    out = tmp_path / 'o.TextGrid'
    code = run('lexi', '--textgrid', str(tg), '--transcription', str(trans),
               '--out', str(out))
    assert code == 3
    assert_one_line_error(capsys, 'doubling at word 0 has no preceding '
                          'trigger word')
    assert not out.exists()


def test_lexi_checks_out_before_reading(tmp_path, capsys):
    assert run('lexi', '--textgrid', str(tmp_path / 'none.TextGrid')) == 2
    assert_one_line_error(capsys, '--out is required for lexi')


def test_lexi_unknown_sentence_exits_3(tmp_path, capsys):
    tg = word_doc_path(tmp_path, ['MAMMA'])
    trans = tmp_path / 'trans.tsv'
    trans.write_text("1.\t'mamma\n", encoding='utf-8')
    code = run('lexi', '--textgrid', str(tg), '--transcription', str(trans),
               '--sentence', '999', '--out', str(tmp_path / 'o.TextGrid'))
    assert code == 3
    assert_one_line_error(capsys, 'sentence 999 not found')
    assert not (tmp_path / 'o.TextGrid').exists()


def test_lexi_without_word_tier_exits_3(tmp_path):
    doc = AnnotationDocument(1.0, [IntervalTier('Other',
                                                [Interval(0, 1, 'x')])])
    tg = tmp_path / 'x.TextGrid'
    tg.write_text(serialize_textgrid(doc), encoding='utf-8')
    code = run('lexi', '--textgrid', str(tg),
               '--out', str(tmp_path / 'o.TextGrid'))
    assert code == 3


@pytest.mark.parametrize('source', [[], ['--landmarks'], ['--wav']],
                         ids=['lexi', 'match-landmarks', 'match-wav'])
def test_point_word_tier_exits_3(tmp_path, capsys, monkeypatch, source):
    """A Word tier must hold intervals; a point tier of that name is
    refused in one line before any audio is read."""
    from lamit import dsp
    doc = AnnotationDocument(1.0, [PointTier('Word',
                                             [Point(0.5, 'MAMMA')])])
    tg = tmp_path / 'points.TextGrid'
    tg.write_text(serialize_textgrid(doc), encoding='utf-8')
    if source == ['--landmarks']:
        given = tmp_path / 'lm.csv'
        given.write_text(CSV_HEADER + '\n', encoding='utf-8')
    elif source == ['--wav']:
        given = tmp_path / 'vcv.wav'
        write_wav(given, synth.vcv_stop()[0])
    argv = ['match', *source, str(given)] if source else ['lexi']
    reads = count_calls(monkeypatch, dsp, 'read_wav')
    out = tmp_path / 'o.out'
    assert run(*argv, '--textgrid', str(tg), '--out', str(out)) == 3
    assert_one_line_error(capsys, 'Word tier is not an interval tier')
    assert reads == []
    assert not out.exists()


def test_lexi_unknown_word_exits_3(tmp_path):
    tg = word_doc_path(tmp_path, ['XYZZY'])
    code = run('lexi', '--textgrid', str(tg),
               '--out', str(tmp_path / 'o.TextGrid'))
    assert code == 3


def test_lexi_word_token_count(tmp_path):
    tg = word_doc_path(tmp_path, ['MAMMA'])
    out = tmp_path / 'o.TextGrid'
    assert run('lexi', '--textgrid', str(tg), '--out', str(out)) == 0
    doc = parse_textgrid(out.read_bytes())
    assert len(doc.tier('LEXI').items) == 4


# ------------------------------------------------------------ landmarks

def test_landmarks_cv(tmp_path):
    audio, release_t, _ = synth.cv_syllable()
    wav = tmp_path / 'cv.wav'
    write_wav(wav, audio)
    out = tmp_path / 'cv_out'
    assert run('landmarks', '--wav', str(wav), '--out', str(out)) == 0
    lines = (tmp_path / 'cv_out.csv').read_text('utf-8').strip().split('\n')
    kinds = [ln.split(',')[1] for ln in lines[1:]]
    assert kinds.count('ConsonantRelease') == 1
    assert kinds.count('Vowel') == 1
    doc = parse_textgrid((tmp_path / 'cv_out.TextGrid').read_bytes())
    assert doc.tier('Landmark').items


def test_landmarks_silence(tmp_path):
    wav = tmp_path / 'sil.wav'
    write_wav(wav, synth.buf(synth.silence(0.5)))
    out = tmp_path / 'sil_out'
    assert run('landmarks', '--wav', str(wav), '--out', str(out)) == 0
    lines = (tmp_path / 'sil_out.csv').read_text('utf-8').strip().split('\n')
    assert lines == ['time_s,kind,manner,strength_dB']


def test_landmarks_stereo_exits_2(tmp_path):
    wav = tmp_path / 'st.wav'
    scipy.io.wavfile.write(wav, 44100, np.zeros((2000, 2), dtype=np.int16))
    assert run('landmarks', '--wav', str(wav),
               '--out', str(tmp_path / 'o')) == 2


def bad_wavs(tmp_path):
    """Inputs the audio commands must refuse with exit 2."""
    not_wav = tmp_path / 'notes.wav'
    not_wav.write_text('this is not audio\n', encoding='utf-8')
    low_rate = tmp_path / 'low.wav'
    scipy.io.wavfile.write(low_rate, 8000, np.zeros(4000, dtype=np.int16))
    too_short = tmp_path / 'short.wav'
    write_wav(too_short, synth.buf(synth.harmonic_source(0.01)))
    return [not_wav, low_rate, too_short]


def assert_one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith('error: ') and err.count('\n') == 1, err
    for needle in needles:
        assert needle in err


def test_landmarks_bad_audio_exits_2(tmp_path, capsys):
    for wav in bad_wavs(tmp_path):
        assert run('landmarks', '--wav', str(wav),
                   '--out', str(tmp_path / 'o')) == 2
        assert_one_line_error(capsys, str(wav))


def test_match_bad_audio_exits_2(tmp_path, capsys):
    tg = word_doc_path(tmp_path, ['MAMMA'])
    for wav in bad_wavs(tmp_path):
        assert run('match', '--wav', str(wav), '--textgrid', str(tg),
                   '--out', str(tmp_path / 'm.csv')) == 2
        assert_one_line_error(capsys, str(wav))


def test_landmarks_deterministic(tmp_path):
    audio, _, _ = synth.cv_syllable()
    wav = tmp_path / 'cv.wav'
    write_wav(wav, audio)
    outs = []
    # a dotted prefix is kept whole: two takes write four files
    for name in ('a', 'b', 'utt.take1', 'utt.take2'):
        out = tmp_path / name
        assert run('landmarks', '--wav', str(wav), '--out', str(out)) == 0
        outs.append((tmp_path / f'{name}.csv').read_text('utf-8'))
        assert (tmp_path / f'{name}.TextGrid').is_file()
    assert len(set(outs)) == 1
    assert not (tmp_path / 'utt.csv').exists()


# ---------------------------------------------------------------- match

def test_match_from_landmark_csv(tmp_path):
    audio, _, _ = synth.cv_syllable()
    wav = tmp_path / 'cv.wav'
    write_wav(wav, audio)
    out = tmp_path / 'cv'
    assert run('landmarks', '--wav', str(wav), '--out', str(out)) == 0
    tg = word_doc_path(tmp_path, ['PO\''], dur=0.9)
    mout = tmp_path / 'match.csv'
    code = run('match', '--landmarks', str(tmp_path / 'cv.csv'),
               '--textgrid', str(tg), '--out', str(mout), '--topk', '3')
    assert code == 0
    lines = mout.read_text('utf-8').strip().split('\n')
    assert lines[0] == 'word_interval_index,candidate,score,rank'
    assert len(lines) == 4


def test_match_empty_landmarks_all_no_evidence(tmp_path):
    csv = tmp_path / 'empty.csv'
    csv.write_text('time_s,kind,manner,strength_dB\n', encoding='utf-8')
    tg = word_doc_path(tmp_path, ['MAMMA', 'BENE'])
    mout = tmp_path / 'match.csv'
    code = run('match', '--landmarks', str(csv), '--textgrid', str(tg),
               '--out', str(mout))
    assert code == 0
    lines = mout.read_text('utf-8').strip().split('\n')[1:]
    assert all('<no evidence>' in ln for ln in lines)
    assert len(lines) == 2


@pytest.mark.parametrize('row', ['0.1,Bogus,,1.0', '0.1,Vowel,1.0',
                                 'later,Vowel,,1.0'])
def test_match_malformed_landmark_csv_exits_2(tmp_path, capsys, row):
    csv = tmp_path / 'bad.csv'
    csv.write_text(f'time_s,kind,manner,strength_dB\n{row}\n',
                   encoding='utf-8')
    tg = word_doc_path(tmp_path, ['MAMMA'])
    assert run('match', '--landmarks', str(csv), '--textgrid', str(tg),
               '--out', str(tmp_path / 'm.csv')) == 2
    assert_one_line_error(capsys, str(csv), 'line 2')


def test_match_k_zero_exits_2(tmp_path):
    csv = tmp_path / 'empty.csv'
    csv.write_text('time_s,kind,manner,strength_dB\n', encoding='utf-8')
    tg = word_doc_path(tmp_path, ['MAMMA'])
    assert run('match', '--landmarks', str(csv), '--textgrid', str(tg),
               '--topk', '0', '--out', str(tmp_path / 'm.csv')) == 2


def test_match_orphans_reported(tmp_path, capsys):
    csv = tmp_path / 'lm.csv'
    csv.write_text('time_s,kind,manner,strength_dB\n'
                   '5.000000,Vowel,,10.00\n', encoding='utf-8')
    tg = word_doc_path(tmp_path, ['MAMMA'])
    mout = tmp_path / 'm.csv'
    code = run('match', '--landmarks', str(csv), '--textgrid', str(tg),
               '--out', str(mout))
    assert code == 0
    assert 'orphan' in capsys.readouterr().err
    assert (tmp_path / 'm.orphans.txt').exists()


def count_calls(monkeypatch, module, name):
    """Replace module.name with a wrapper that records its arguments."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def voicing_times(audio):
    """The frame times inside non-sonorant closure-release windows: the
    only frames whose voicing a cue rule reads."""
    from lamit import dsp, landmarks
    params = dsp.parameter_frames(audio)
    items = landmarks.detect_landmarks(params.tracks).items
    frames = []
    i = 0
    while i < len(items):
        cl = items[i]
        if cl.kind is landmarks.LandmarkKind.CLOSURE and i + 1 < len(items) \
                and items[i + 1].kind is landmarks.LandmarkKind.RELEASE:
            rel = items[i + 1]
            manner = rel.manner if rel.manner is not None else cl.manner
            if manner is not landmarks.Manner.SONORANT:
                frames += range(len(params.tracks.times))[
                    params.window(cl.time, rel.time)]
            i += 2
        else:
            i += 1
    return params.tracks.times[frames]


def test_match_wav_computes_one_spectrogram(tmp_path, monkeypatch):
    """One spectral pass, fused with the band sums, and at most two F0
    calls on the frames the voicing rule reads, none twice: each
    window's middle frames first, then the rest of the windows those
    leave undecided."""
    from lamit import dsp
    audio, _ = synth.vcv_stop()
    wav = tmp_path / 'vcv.wav'
    write_wav(wav, audio)
    tg = word_doc_path(tmp_path, ['PAPÀ'], dur=audio.duration)
    want = voicing_times(audio)
    spectrograms = count_calls(monkeypatch, dsp, 'compute_spectrogram')
    bands = count_calls(monkeypatch, dsp, 'band_energies')
    f0s = count_calls(monkeypatch, dsp, 'estimate_f0')
    assert run('match', '--wav', str(wav), '--textgrid', str(tg),
               '--out', str(tmp_path / 'm.csv')) == 0
    assert spectrograms == bands == []
    assert 1 <= len(f0s) <= 2
    got = np.concatenate([call[1] for call in f0s])
    assert len(set(got)) == len(got) and set(got) <= set(want)
    # vcv_stop has one 12-frame window: its middle 7 frames come first
    assert len(want) == 12
    np.testing.assert_array_equal(f0s[0][1], want[2:9])
    assert 0 < len(want) < len(dsp.standard_tracks(audio).times) // 2


def test_landmarks_computes_no_f0(tmp_path, monkeypatch):
    from lamit import dsp
    audio, _ = synth.vcv_stop()
    wav = tmp_path / 'vcv.wav'
    write_wav(wav, audio)
    f0s = count_calls(monkeypatch, dsp, 'estimate_f0')
    assert run('landmarks', '--wav', str(wav),
               '--out', str(tmp_path / 'o')) == 0
    assert f0s == []


def test_warm_match_wav_peaks_below_its_audio_plus_2_mib(tmp_path, capsys):
    """A 6 s match --wav, its data already parsed, allocates at most its
    float64 samples and 2 MiB at once: the frame passes work in blocks
    of a fixed size."""
    audio = synth.utterances()['concatenated']
    wav, tg = tmp_path / 'u.wav', tmp_path / 'words.TextGrid'
    write_wav(wav, audio)
    tg.write_text(serialize_textgrid(synth.word_doc(audio.duration)),
                  encoding='utf-8')
    argv = ('match', '--wav', str(wav), '--textgrid', str(tg),
            '--out', str(tmp_path / 'm.csv'))
    assert run(*argv) == 0
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < audio.samples.nbytes + 2 * 2 ** 20


def bad_interval_textgrid(tmp_path):
    """A Word-tier TextGrid whose first interval has xmax = oops."""
    path = word_doc_path(tmp_path, ['MAMMA', 'BENE'])
    text = path.read_text('utf-8')
    assert '            xmax = 0.5\n' in text
    path.write_text(text.replace('            xmax = 0.5\n',
                                 '            xmax = oops\n', 1),
                    encoding='utf-8')
    return path


def test_match_bad_textgrid_exits_2(tmp_path, capsys):
    csv = tmp_path / 'empty.csv'
    csv.write_text('time_s,kind,manner,strength_dB\n', encoding='utf-8')
    tg = bad_interval_textgrid(tmp_path)
    assert run('match', '--landmarks', str(csv), '--textgrid', str(tg),
               '--out', str(tmp_path / 'm.csv')) == 2
    assert_one_line_error(capsys, 'TextGrid')


@pytest.mark.parametrize('end, label', [
    (1.000000002, 'MAMMA'),     # its phonemes are 0.4 and 0.8 ns long
    (math.nextafter(1.0, 2.0), ''),
    (math.nextafter(1.0, 2.0), 'MAMMA'),
], ids=['2 ns word', 'one-ulp pause', 'one-ulp word'])
def test_lexi_refuses_a_word_interval_it_cannot_write(tmp_path, capsys,
                                                      end, label):
    """A Word interval whose LEXI intervals would be empty, or read back
    empty at the writer's 9 decimals, is an input fault: exit 2, one line
    that names the TextGrid and the interval, and no output file."""
    path = word_doc_path(tmp_path, ['BENE', label, 'BENE'], dur=1.0)
    text = path.read_text('utf-8')
    assert text.count(' = 2\n') == 2
    path.write_text(text.replace(' = 2\n', f' = {end!r}\n'), 'utf-8')
    out = tmp_path / 'o.TextGrid'
    assert run('lexi', '--textgrid', str(path), '--out', str(out)) == 2
    assert_one_line_error(capsys, f'error: TextGrid {path}: Word interval '
                          f'{label!r} at [1.0, {end!r}] too short: empty '
                          'interval [1.0, 1.0]')
    assert not out.exists()


def test_lexi_refuses_a_document_end_it_would_write_as_0(tmp_path, capsys):
    """xmax = 1e-10 reads, but is 0 at the writer's 9 decimals, which the
    reader refuses: exit 2, one line, no output file."""
    text = serialize_textgrid(AnnotationDocument(1, [IntervalTier('Word')]))
    assert text.count('xmax = 1\n') == 2
    path = tmp_path / 'words.TextGrid'
    path.write_text(text.replace('xmax = 1\n', 'xmax = 1e-10\n'), 'utf-8')
    assert parse_textgrid(path.read_bytes()).duration == 1e-10
    out = tmp_path / 'o.TextGrid'
    assert run('lexi', '--textgrid', str(path), '--out', str(out)) == 2
    assert_one_line_error(capsys, f'error: TextGrid {path}: document end '
                          '0.0 is not finite and above 0')
    assert not out.exists()


def test_lexi_bad_textgrid_exits_2(tmp_path, capsys):
    tg = bad_interval_textgrid(tmp_path)
    assert run('lexi', '--textgrid', str(tg),
               '--out', str(tmp_path / 'o.TextGrid')) == 2
    assert_one_line_error(capsys, 'TextGrid')


@pytest.mark.parametrize('old, new, message', [
    ('            xmin = 0.5\n', '            xmin = oops\n',
     "number expected, found 'oops'"),
    ('text = "MAMMA"', 'text = MAMMA',
     "quoted string expected, found 'MAMMA'"),
])
@pytest.mark.parametrize('command', ['lexi', 'match'])
def test_wrong_kind_textgrid_value_exits_2(tmp_path, capsys, command, old,
                                           new, message):
    tg = word_doc_path(tmp_path, ['MAMMA', 'BENE'])
    text = tg.read_text('utf-8')
    assert old in text
    tg.write_text(text.replace(old, new, 1), encoding='utf-8')
    csv = tmp_path / 'empty.csv'
    csv.write_text('time_s,kind,manner,strength_dB\n', encoding='utf-8')
    argv = {'lexi': ['lexi'], 'match': ['match', '--landmarks', str(csv)]}
    assert run(*argv[command], '--textgrid', str(tg),
               '--out', str(tmp_path / 'o')) == 2
    assert_one_line_error(capsys, 'TextGrid', message)


@pytest.mark.parametrize('command', ['lexi', 'match'])
def test_unclosed_quote_in_textgrid_exits_2_on_one_line(tmp_path, capsys,
                                                       command):
    """The second label loses its closing quote, so the string runs on
    over the next interval: one stderr line all the same."""
    tg = word_doc_path(tmp_path, ['MAMMA', 'BENE', 'PAPÀ', 'MAMMA'])
    text = tg.read_text('utf-8')
    tg.write_text(text.replace('"BENE"', '"BENE', 1), encoding='utf-8')
    csv = tmp_path / 'empty.csv'
    csv.write_text('time_s,kind,manner,strength_dB\n', encoding='utf-8')
    argv = {'lexi': ['lexi'], 'match': ['match', '--landmarks', str(csv)]}
    assert run(*argv[command], '--textgrid', str(tg),
               '--out', str(tmp_path / 'o')) == 2
    assert_one_line_error(capsys, str(tg), 'line 26: number expected, '
                          """found '"\\n        intervals [4]:""")


# ------------------------------------------------------------- validate

def test_validate_pristine(capsys):
    assert run('validate') == 0
    out = capsys.readouterr().out
    assert out.count('PASS') == 4
    assert '4/4 suites passed' in out


def test_validate_corrupt_lexicon(tmp_path, capsys):
    from importlib import resources
    text = (resources.files('lamit') / 'data' / 'lamit_lexicon.tsv') \
        .read_text('utf-8')
    bad = tmp_path / 'lex.tsv'
    bad.write_text(text.replace('MAMMA\tM AA1 MM AA',
                                'MAMMA\tM QQ1 MM AA'), encoding='utf-8')
    assert run('validate', '--lexicon', str(bad)) == 1
    assert 'lexicon-resolution: FAIL' in capsys.readouterr().out


def test_validate_duplicated_inventory_column(tmp_path):
    from importlib import resources
    text = (resources.files('lamit') / 'data' / 'italian_features.tsv') \
        .read_text('utf-8')
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith('phoneme\t'):
            cells = ln.split('\t')
            cells.insert(3, cells[2])       # duplicate a feature column
            lines[i] = '\t'.join(cells)
    bad = tmp_path / 'inv.tsv'
    bad.write_text('\n'.join(lines), encoding='utf-8')
    assert run('validate', '--inventory', str(bad)) == 1


def test_validate_inventory_with_twin_singletons_exits_1(tmp_path, capsys):
    rows = (data_dir() / 'italian_features.tsv').read_text(
        'utf-8').splitlines()
    b = next(i for i, ln in enumerate(rows) if ln.startswith('b\t'))
    p = next(i for i, ln in enumerate(rows) if ln.startswith('p\t'))
    cells = rows[b].split('\t')
    rows[b] = '\t'.join(cells[:2] + rows[p].split('\t')[2:])
    bad = tmp_path / 'inv.tsv'
    bad.write_text('\n'.join(rows) + '\n', encoding='utf-8')
    assert run('validate', '--inventory', str(bad)) == 1
    assert_one_line_error(capsys, 'non-distinct bundles: P vs B')


def test_validate_doubly_stressed_entry_fails(tmp_path, capsys):
    text = (data_dir() / 'lamit_lexicon.tsv').read_text('utf-8')
    assert 'MAMMA\tM AA1 MM AA\n' in text
    bad = tmp_path / 'lex.tsv'
    bad.write_text(text.replace('MAMMA\tM AA1 MM AA\n',
                                'MAMMA\tM AA1 MM AA1\n'), encoding='utf-8')
    assert run('validate', '--lexicon', str(bad)) == 1
    out = capsys.readouterr().out
    assert 'lexicon-resolution: FAIL' in out
    assert '2 primary stresses in MAMMA' in out


def test_validate_reports_each_suites_own_failure(tmp_path, capsys):
    """The inventory, lexicon and frequency suites each fail on input
    that loads but does not reproduce the shipped data."""
    assert run('validate', '--inventory',
               str(data_dir() / 'english_features.tsv')) == 1
    assert 'inventory-distinctness: FAIL - bad class partition ' \
        in capsys.readouterr().out
    text = (data_dir() / 'lamit_lexicon.tsv').read_text('utf-8')
    short = tmp_path / 'lex.tsv'
    short.write_text(text.replace('MAMMA\tM AA1 MM AA\n', ''),
                     encoding='utf-8')
    assert run('validate', '--lexicon', str(short)) == 1
    out = capsys.readouterr().out
    assert 'lexicon-resolution: FAIL - expected 563 entries, got 562' in out
    assert '3/4 suites passed' in out
    one = tmp_path / 'one.tsv'
    one.write_text("1.\t'mamma 'bɛne\n", encoding='utf-8')
    assert run('validate', '--corpus', str(one)) == 1
    out = capsys.readouterr().out
    assert 'corpus-counting-oracle: PASS' in out
    assert 'frequency-reproduction: FAIL - /' in out
    assert '3/4 suites passed' in out


def test_stats_and_validate_read_the_inventory_given(tmp_path, capsys):
    """Multi-character symbols come from --inventory: each English
    diphthong is one phoneme, in the parse and in the recount."""
    inventory = str(data_dir() / 'english_features.tsv')
    text = tmp_path / 'english.tsv'
    text.write_text("1.\t'taɪm 'haʊs 'bɔɪ\n2.\t'mʌni 'fɪʃ\n",
                    encoding='utf-8')
    out = tmp_path / 'freq.csv'
    assert run('stats', '--inventory', inventory, '--corpus', str(text),
               '--out', str(out)) == 0
    counts = {row[0]: int(row[2]) for row in
              (ln.split(',') for ln in out.read_text('utf-8').split()[1:])}
    assert sum(counts.values()) == 15
    assert counts['aɪ'] == counts['aʊ'] == counts['ɔɪ'] == counts['ɪ'] == 1
    assert 'a' not in counts and 'ɔ' not in counts and 'ʊ' not in counts
    capsys.readouterr()
    assert run('validate', '--inventory', inventory,
               '--corpus', str(text)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert 'corpus-counting-oracle: PASS - 15 tokens match the ' \
        'independent recount' in lines
    # the other suites check the shipped Italian data's numbers
    assert '1/4 suites passed' in lines


def test_validate_recounts_lines_without_a_number(tmp_path, capsys):
    """A line with no `N.<TAB>` prefix is all transcription, to the
    parser and to the recount alike."""
    lines = [ln for ln in (data_dir() / 'lamit_transcriptions.tsv')
             .read_text('utf-8').splitlines()
             if ln and not ln.startswith('#')][:3]
    numbered, bare = tmp_path / 'numbered.tsv', tmp_path / 'bare.tsv'
    numbered.write_text('\n'.join(lines) + '\n', encoding='utf-8')
    bare.write_text('\n'.join(ln.partition('\t')[2] for ln in lines) + '\n',
                    encoding='utf-8')
    assert '\t' not in bare.read_text('utf-8')
    reports = []
    for path in (numbered, bare):
        assert run('stats', '--corpus', str(path)) == 0
        capsys.readouterr()
        # three sentences do not reproduce the published frequencies
        assert run('validate', '--corpus', str(path)) == 1
        reports.append([ln for ln in capsys.readouterr().out.splitlines()
                        if ln.startswith('corpus-counting-oracle')])
    assert reports[0] == reports[1]
    assert reports[0][0].startswith('corpus-counting-oracle: PASS - ')


@pytest.fixture
def data_copy(tmp_path, monkeypatch):
    """A copy of the shipped data that `LAMIT_DATA_DIR` points at."""
    copy = tmp_path / 'data'
    shutil.copytree(data_dir(), copy)
    monkeypatch.setenv('LAMIT_DATA_DIR', str(copy))
    return copy


def reference_with(data, old, new):
    path = data / 'reference_frequencies.tsv'
    text = path.read_text('utf-8')
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding='utf-8')


@pytest.mark.parametrize('row, fault', [
    ('x', 'expected 3 cells, got 1'),
    ('a\tAA', 'expected 3 cells, got 2'),
    ('a\tAA\t12.99\t1', 'expected 3 cells, got 4'),
    ('a\tAA\tmany', "could not convert string to float: 'many'"),
    ('q\tQ\t12.99', "unknown phoneme 'q'"),
], ids=['one-cell', 'no-percent', 'extra-cell', 'percent', 'phoneme'])
def test_validate_names_a_malformed_reference_row(data_copy, capsys, row,
                                                  fault):
    reference_with(data_copy, 'a\tAA\t12.99\n', row + '\n')
    assert run('validate') == 1
    out = capsys.readouterr().out.splitlines()
    assert 'frequency-reproduction: FAIL - reference_frequencies.tsv ' \
        f'line 5: {fault}' in out
    assert '3/4 suites passed' in out


def test_validate_counts_the_reference_rows_it_compares(data_copy, capsys):
    reference_with(data_copy, 'e\tEY\t9.68\ni\tIY\t9.03\n', '')
    assert run('validate') == 0
    assert 'frequency-reproduction: PASS - 48 phonemes within 0.15 points' \
        in capsys.readouterr().out
    reference_with(data_copy, 'a\tAA\t12.99\n', 'a\tAA\tnan\n')
    assert run('validate') == 1
    assert 'frequency-reproduction: FAIL - /a/ deviates nan points' \
        in capsys.readouterr().out


@pytest.mark.parametrize('blank', ['   ', '\t', ' \t '])
def test_validate_skips_a_whitespace_only_reference_line(data_copy, capsys,
                                                         blank):
    assert run('validate') == 0
    want = capsys.readouterr().out
    path = data_copy / 'reference_frequencies.tsv'
    path.write_text(path.read_text('utf-8') + blank + '\n', encoding='utf-8')
    assert run('validate') == 0
    assert capsys.readouterr().out == want


# ------------------------------------------------------------- config

def test_show_config(capsys):
    assert run('stats', '--show-config') == 0
    out = capsys.readouterr().out
    assert 'frame_length = 0.025' in out
    assert 'w_free = 2' in out


def test_config_file_override(tmp_path, capsys):
    cfg = tmp_path / 'analysis.cfg'
    cfg.write_text('frame_step = 0.010\nw_bound = 0.5\n', encoding='utf-8')
    assert run('stats', '--config', str(cfg), '--show-config') == 0
    out = capsys.readouterr().out
    assert 'frame_step = 0.01' in out
    assert 'w_bound = 0.5' in out


def test_config_files_layer_in_order(tmp_path, capsys):
    first = tmp_path / 'first.cfg'
    first.write_text('frame_step = 0.010\nw_bound = 0.5\n', encoding='utf-8')
    second = tmp_path / 'second.cfg'
    second.write_text('w_bound = 0.75\n', encoding='utf-8')
    assert run('stats', '--config', str(first), '--config', str(second),
               '--show-config') == 0
    out = capsys.readouterr().out
    assert 'frame_step = 0.01\n' in out and 'w_bound = 0.75\n' in out
    assert run('stats', '--config', str(second), '--config', str(first),
               '--show-config') == 0
    assert 'w_bound = 0.5\n' in capsys.readouterr().out


def test_weights_option_is_gone(tmp_path, capsys):
    cfg = tmp_path / 'w.cfg'
    cfg.write_text('w_bound = 0.5\n', encoding='utf-8')
    assert run('stats', '--weights', str(cfg), '--show-config') == 2
    assert '--weights' in capsys.readouterr().err


@pytest.mark.parametrize('text, ok', [
    ('w_bound = 0.5\nf0_min = 600\n', False),
    ('w_bound = 0.5\nno_such_knob = 1\n', False),
    ('w_bound = 0.5\nf0_min = 60\n', True)])
def test_parse_config_leaves_base_unchanged(text, ok):
    """A file's values over the defaults, checked once, as `--config`
    reads them; the defaults themselves never change."""
    def load():
        return check_config(AnalysisConfig(**parse_config_values(text)))
    if ok:
        cfg = load()
        assert (cfg.w_bound, cfg.f0_min) == (0.5, 60.0)
    else:
        with pytest.raises(ConfigError):
            load()
    defaults = AnalysisConfig()
    assert (defaults.w_bound, defaults.f0_min) == (1.0, 50.0)


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / 'bad.cfg'
    cfg.write_text('no_such_knob = 1\n', encoding='utf-8')
    assert run('stats', '--config', str(cfg), '--show-config') == 2


@pytest.mark.parametrize('line', [
    'f0_min = 0', 'f0_max = 0', 'f0_min = -50', 'f0_frame_length = 0',
    'noise_min_duration = nan', 'noise_min_duration = 0',
    'frame_step = 0', 'frame_length = -0.025', 'ror_window = 0',
    'vowel_min_separation = 0', 'gate_min_duration = -1',
    'gate_db = inf', 'ror_threshold = -inf', 'w_free = nan',
    'high_band = 2500 inf', 'low_band = nan 400',
    'merge_window = 0', 'merge_window = -0.01',
    'gate_db = 0', 'gate_db = -10',
])
def test_non_finite_or_non_positive_config_exits_2(tmp_path, capsys, line):
    audio, _ = synth.vcv_stop()
    wav = tmp_path / 'vcv.wav'
    write_wav(wav, audio)
    tg = word_doc_path(tmp_path, ['PAPÀ'], dur=audio.duration)
    cfg = tmp_path / 'bad.cfg'
    cfg.write_text(f'# analysis\n{line}\n', encoding='utf-8')
    assert run('match', '--wav', str(wav), '--textgrid', str(tg),
               '--config', str(cfg), '--out', str(tmp_path / 'm.csv')) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert 'line 2' in err and line.split()[0] in err


@pytest.mark.parametrize('text', [
    'f0_min = 400\nf0_max = 100\n', 'f0_min = 500\n', 'f0_max = 50\n'])
def test_f0_limits_out_of_order_exit_2(tmp_path, capsys, text):
    with pytest.raises(ConfigError, match='f0_min .* f0_max'):
        check_config(AnalysisConfig(**parse_config_values(text)))
    audio, _ = synth.vcv_stop()
    wav = tmp_path / 'vcv.wav'
    write_wav(wav, audio)
    tg = word_doc_path(tmp_path, ['PAPÀ'], dur=audio.duration)
    cfg = tmp_path / 'f0.cfg'
    cfg.write_text(text, encoding='utf-8')
    assert run('match', '--wav', str(wav), '--textgrid', str(tg),
               '--config', str(cfg), '--out', str(tmp_path / 'm.csv')) == 2
    assert_one_line_error(capsys, 'f0_min', 'f0_max')


@pytest.mark.parametrize('line, shown', [
    ('low_band = 400 0', 'low_band (400, 0)'),
    ('high_band = -5 100', 'high_band (-5, 100)'),
    ('f1_band = 300 300', 'f1_band (300, 300)')])
def test_band_no_audio_can_satisfy_exits_2(tmp_path, capsys, line, shown):
    """Refused for every command, before any audio is read; the band's
    Nyquist limit waits for the sample rate."""
    with pytest.raises(ConfigError, match='0 <= low < high'):
        check_config(AnalysisConfig(**parse_config_values(line)))
    audio, _ = synth.vcv_stop()
    wav = tmp_path / 'vcv.wav'
    write_wav(wav, audio)
    tg = word_doc_path(tmp_path, ['PAPÀ'], dur=audio.duration)
    cfg = tmp_path / 'band.cfg'
    cfg.write_text(line + '\n', encoding='utf-8')
    for argv in (['stats', '--show-config'], ['validate']):
        assert run(*argv, '--config', str(cfg)) == 2
        assert_one_line_error(capsys, 'bad config: ', shown)
    assert run('match', '--wav', str(wav), '--textgrid', str(tg),
               '--config', str(cfg), '--out', str(tmp_path / 'm.csv')) == 2
    err = capsys.readouterr().err
    assert err == f'error: bad config: {shown} must have 0 <= low < high\n'
    assert not (tmp_path / 'm.csv').exists()


def test_f0_frame_too_short_for_lags_exits_2(tmp_path, capsys):
    audio, _ = synth.vcv_stop()
    wav = tmp_path / 'vcv.wav'
    write_wav(wav, audio)
    tg = word_doc_path(tmp_path, ['PAPÀ'], dur=audio.duration)
    cfg = tmp_path / 'f0.cfg'
    cfg.write_text('f0_frame_length = 0.002\n', encoding='utf-8')
    assert run('match', '--wav', str(wav), '--textgrid', str(tg),
               '--config', str(cfg), '--out', str(tmp_path / 'm.csv')) == 2
    assert_one_line_error(capsys, str(wav), 'no F0 lag range')
    assert not (tmp_path / 'm.csv').exists()


def test_f0_lag_range_checked_before_analysis(tmp_path, capsys,
                                             monkeypatch):
    from lamit import dsp
    audio, _ = synth.vcv_stop()
    wav = tmp_path / 'vcv.wav'
    write_wav(wav, audio)
    tg = word_doc_path(tmp_path, ['PAPÀ'], dur=audio.duration)
    cfg = tmp_path / 'f0.cfg'
    cfg.write_text('f0_frame_length = 0.002\n', encoding='utf-8')
    tracks = count_calls(monkeypatch, dsp, 'standard_tracks')
    assert run('match', '--wav', str(wav), '--textgrid', str(tg),
               '--config', str(cfg), '--out', str(tmp_path / 'm.csv')) == 2
    assert_one_line_error(capsys, str(wav), 'no F0 lag range')
    assert tracks == []


def test_band_starting_beyond_nyquist_names_the_configured_band(
        tmp_path, capsys):
    audio = synth.utterances()['concatenated']      # 16 kHz
    wav = tmp_path / 'utt.wav'
    write_wav(wav, audio)
    cfg = tmp_path / 'band.cfg'
    cfg.write_text('low_band = 9000 12000\n', encoding='utf-8')
    assert run('landmarks', '--wav', str(wav), '--config', str(cfg),
               '--out', str(tmp_path / 'o')) == 2
    assert_one_line_error(capsys, str(wav), 'low_band (9000.0, 12000.0)',
                          'Nyquist 8000 Hz')
    # a band that only ends beyond Nyquist is clipped there
    cfg.write_text('high_band = 2500 12000\n', encoding='utf-8')
    assert run('landmarks', '--wav', str(wav), '--config', str(cfg),
               '--out', str(tmp_path / 'o')) == 0


def test_validate_parses_corpus_once(monkeypatch, capsys):
    from lamit import corpus
    parses = count_calls(monkeypatch, corpus, 'parse_corpus')
    counts = count_calls(monkeypatch, corpus, 'phoneme_frequencies')
    assert run('validate') == 0
    assert '4/4 suites passed' in capsys.readouterr().out
    assert len(parses) == len(counts) == 1


def test_validate_fails_on_a_recount_mismatch(monkeypatch, capsys):
    from lamit import cli, features
    recount = cli._independent_recount

    def miscount(text, inv):
        counts = recount(text, inv)
        counts['a'] += 1
        return counts

    monkeypatch.setattr(cli, '_independent_recount', miscount)
    assert run('validate') == 1
    lines = capsys.readouterr().out.splitlines()
    n = recount((data_dir() / 'lamit_transcriptions.tsv').read_text('utf-8'),
                features.load_italian())['a']
    assert f"corpus-counting-oracle: FAIL - recount mismatch: " \
        f"{{'a': ({n}, {n + 1})}}" in lines
    assert '3/4 suites passed' in lines


def test_data_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv('LAMIT_DATA_DIR', str(tmp_path))
    # the default corpus now resolves inside the empty override dir
    assert run('stats') == 2
    err = capsys.readouterr().err
    assert str(tmp_path) in err


# ------------------------------------------------------------ imports

def run_probe(probe, *args):
    """The stdout lines of `python -c probe args...` in a fresh
    interpreter that imports lamit from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / 'src')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get('PYTHONPATH')])))
    return subprocess.run([sys.executable, '-c', probe, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout.splitlines()


def test_text_commands_load_neither_scipy_nor_numpy():
    probe = (
        'import io, sys, contextlib\n'
        'import lamit.cli\n'
        'print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))\n'
        'print("dataclasses" in sys.modules, "numpy" in sys.modules)\n'
        'print(sorted({"lamit.annotation", "lamit.corpus", "lamit.textgrid"}\n'
        '             & set(sys.modules)))\n'
        'with contextlib.redirect_stdout(io.StringIO()):\n'
        '    code = lamit.cli.main(["validate"])\n'
        'print(code, "numpy" in sys.modules)\n')
    assert run_probe(probe) == ['[]', 'False False', '[]', '0 False']


def test_no_lamit_module_loads_dataclasses():
    probe = (
        'import importlib, pkgutil, sys\n'
        'import lamit\n'
        'for m in pkgutil.iter_modules(lamit.__path__, "lamit."):\n'
        '    importlib.import_module(m.name)\n'
        'print(" ".join(sorted(m for m in sys.modules\n'
        '                      if m.startswith("lamit."))))\n'
        'print("dataclasses" in sys.modules)\n')
    names, loaded = run_probe(probe)
    assert {'lamit.access', 'lamit.cli', 'lamit.dsp',
            'lamit.landmarks'} <= set(names.split())
    assert loaded == 'False'


def test_audio_commands_load_no_scipy(tmp_path):
    audio, _ = synth.fricative_vcv()
    wav = tmp_path / 'fvcv.wav'
    write_wav(wav, audio)
    tg = word_doc_path(tmp_path, ['BASSO'], dur=audio.duration)
    probe = (
        'import io, sys, contextlib\n'
        'import lamit.cli\n'
        'wav, tg, out = sys.argv[1:]\n'
        'with contextlib.redirect_stdout(io.StringIO()):\n'
        '    codes = [lamit.cli.main(["match", "--wav", wav, "--textgrid",\n'
        '                             tg, "--out", out + ".csv"])]\n'
        '    annotation = "lamit.annotation" in sys.modules\n'
        '    masked = ["numpy.ma" in sys.modules]\n'
        '    codes.append(lamit.cli.main(["landmarks", "--wav", wav,\n'
        '                                 "--out", out]))\n'
        '    masked.append("numpy.ma" in sys.modules)\n'
        'print(codes, "numpy" in sys.modules, annotation, masked)\n'
        'print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))\n')
    out = run_probe(probe, str(wav), str(tg), str(tmp_path / 'out'))
    assert out == ['[0, 0] True False [False, False]', '[]']


@pytest.mark.parametrize('error', ['inventory', 'lexicon', 'transcription',
                                   'TextGrid'])
def test_parse_errors_reaching_main_exit_1(monkeypatch, capsys, error):
    """main() maps a data-file parse error that no command turned into a
    usage error to one line and exit 1."""
    import lamit.cli
    from lamit import corpus, features, lexicon, textgrid
    exc = {'inventory': features.InventoryError,
           'lexicon': lexicon.LexiconParseError,
           'transcription': corpus.TranscriptionError,
           'TextGrid': textgrid.TextGridError}[error]

    def cmd_stats(args, cfg):
        raise exc(f'line 3: broken {error}')
    monkeypatch.setattr(lamit.cli, 'cmd_stats', cmd_stats)
    assert run('stats') == 1
    assert_one_line_error(capsys, f'line 3: broken {error}')


# ------------------------------------------------------- input encoding

NOT_UTF8 = b'\xff\xfe# not UTF-8\n'


@pytest.mark.parametrize('kind', ['config', 'inventory', 'lexicon',
                                  'corpus-stats', 'corpus-validate',
                                  'transcription', 'landmark-csv'])
def test_non_utf8_input_exits_2(tmp_path, capsys, kind):
    bad = tmp_path / f'{kind}.bad'
    bad.write_bytes(NOT_UTF8)
    tg = word_doc_path(tmp_path, ['MAMMA'])
    out = str(tmp_path / 'out')
    argv = {
        'config': ['stats', '--config', str(bad)],
        'inventory': ['stats', '--inventory', str(bad)],
        'lexicon': ['validate', '--lexicon', str(bad)],
        'corpus-stats': ['stats', '--corpus', str(bad)],
        'corpus-validate': ['validate', '--corpus', str(bad)],
        'transcription': ['lexi', '--textgrid', str(tg), '--transcription',
                          str(bad), '--out', out],
        'landmark-csv': ['match', '--landmarks', str(bad), '--textgrid',
                         str(tg), '--out', out],
    }[kind]
    assert run(*argv) == 2
    assert_one_line_error(capsys, str(bad), 'UTF-8')


@pytest.mark.parametrize('kind', ['config', 'inventory', 'lexicon',
                                  'corpus', 'transcription', 'landmark-csv'])
def test_utf8_bom_input_reads_as_without(tmp_path, capsys, kind):
    """Each text input gives the same exit code, console output and
    output file with and without a UTF-8 byte order mark."""
    src, out = tmp_path / 'input.txt', tmp_path / 'out'
    tg = word_doc_path(tmp_path, ['MAMMA'])
    shipped = data_dir()
    argv, text = {
        'config': (['stats', '--show-config', '--config', src],
                   'w_free = 3\n'),
        'inventory': (['stats', '--inventory', src, '--out', out],
                      (shipped / 'italian_features.tsv').read_text('utf-8')),
        'lexicon': (['lexi', '--textgrid', tg, '--lexicon', src,
                     '--out', out],
                    (shipped / 'lamit_lexicon.tsv').read_text('utf-8')),
        'corpus': (['stats', '--corpus', src, '--out', out],
                   (shipped / 'lamit_transcriptions.tsv').read_text('utf-8')),
        'transcription': (['lexi', '--textgrid', tg, '--transcription', src,
                           '--out', out], "1\tmam'ma\n"),
        'landmark-csv': (['match', '--landmarks', src, '--textgrid', tg,
                          '--out', out],
                         f'{CSV_HEADER}\n0.100000,Vowel,,10.00\n'),
    }[kind]
    results = []
    for bom in (b'', codecs.BOM_UTF8):
        src.write_bytes(bom + text.encode('utf-8'))
        code = run(*map(str, argv))
        results.append((code, capsys.readouterr(),
                        out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert results[0][0] == 0
    assert results[1] == results[0]


@pytest.mark.parametrize('data', [b'\xff\xfe\x00\xd8', b'File \xff\xff'])
def test_undecodable_textgrid_exits_2(tmp_path, capsys, data):
    tg = tmp_path / 'bad.TextGrid'
    tg.write_bytes(data)
    assert run('lexi', '--textgrid', str(tg),
               '--out', str(tmp_path / 'o.TextGrid')) == 2
    assert_one_line_error(capsys, 'TextGrid', 'text')


# ------------------------------------------------------ layered config

def test_layered_config_checks_f0_limits_once(tmp_path, capsys):
    low = tmp_path / 'a.cfg'
    low.write_text('f0_min = 600\n', encoding='utf-8')
    high = tmp_path / 'b.cfg'
    high.write_text('f0_max = 1000\n', encoding='utf-8')
    for first, second in ((low, high), (high, low)):
        assert run('stats', '--config', str(first), '--config', str(second),
                   '--show-config') == 0
        out = capsys.readouterr().out
        assert 'f0_min = 600\n' in out and 'f0_max = 1000\n' in out
    # the final config is still checked
    assert run('stats', '--config', str(low), '--show-config') == 2
    assert_one_line_error(capsys, 'f0_min (600) must be below f0_max (500)')


@pytest.mark.parametrize('command', ['landmarks', 'match'])
def test_huge_ror_window_is_one_line_error(tmp_path, capsys, command):
    """A rate-of-rise window far longer than the audio is refused before
    its smoothing kernel is allocated."""
    audio, _ = synth.fricative_vcv()
    wav = tmp_path / 'fvcv.wav'
    write_wav(wav, audio)
    cfg = tmp_path / 'ror.cfg'
    cfg.write_text('ror_window = 1e9\n', encoding='utf-8')
    argv = [command, '--wav', str(wav), '--config', str(cfg),
            '--out', str(tmp_path / 'o')]
    if command == 'match':
        argv += ['--textgrid', str(word_doc_path(tmp_path, ['BASSO'],
                                                 dur=audio.duration))]
    assert run(*argv) == 2
    assert_one_line_error(capsys, str(wav), 'rate-of-rise window 1e+09s')


def test_config_line_error_names_its_file(tmp_path, capsys):
    good = tmp_path / 'good.cfg'
    good.write_text('w_bound = 0.5\n', encoding='utf-8')
    bad = tmp_path / 'bad.cfg'
    bad.write_text('# knobs\nw_free = nan\n', encoding='utf-8')
    assert run('stats', '--config', str(good), '--config', str(bad),
               '--show-config') == 2
    assert_one_line_error(capsys, f'{bad}: line 2: w_free must be finite')


@pytest.mark.parametrize('command', ['stats', 'lexi', 'validate'])
@pytest.mark.parametrize('config', [None, 'no_such_knob = 1\n'])
def test_every_command_reads_its_config(tmp_path, capsys, command, config):
    cfg = tmp_path / 'x.cfg'
    if config is not None:
        cfg.write_text(config, encoding='utf-8')
    argv = [command, '--config', str(cfg)]
    if command == 'lexi':
        argv += ['--textgrid', str(word_doc_path(tmp_path, ['MAMMA'])),
                 '--out', str(tmp_path / 'o.TextGrid')]
    assert run(*argv) == 2
    assert_one_line_error(capsys, str(cfg))
    assert not (tmp_path / 'o.TextGrid').exists()


BAD_WEIGHTS = [('w_bound = 5\n', 'need w_free >= w_bound > 0'),
               ('unspecified_cost = -1\n',
                'unspecified_cost must be non-negative')]


@pytest.mark.parametrize('values, message', [
    ({'w_bound': 5.0}, 'need w_free >= w_bound > 0'),
    ({'w_bound': 0.0}, 'need w_free >= w_bound > 0'),
    ({'w_free': 0.5}, 'need w_free >= w_bound > 0'),
    ({'unspecified_cost': -1.0}, 'unspecified_cost must be non-negative'),
    ({'w_free': float('inf'), 'w_bound': float('inf')},
     'weights must be finite')],
    ids=['w_bound_above_w_free', 'zero_w_bound', 'w_free_below_w_bound',
         'negative_unspecified_cost', 'infinite'])
def test_check_config_owns_the_weight_rule(values, message):
    with pytest.raises(ConfigError, match=f'^{message}$'):
        check_config(AnalysisConfig(**values))


@pytest.mark.parametrize('weights', ['w_free = 1e308\n',
                                     'w_free = 1e308\nw_bound = 1e308\n'])
def test_overflowing_weights_exit_2_without_warnings(tmp_path, capsys,
                                                     weights):
    csv = tmp_path / 'lm.csv'
    csv.write_text(f'{CSV_HEADER}\n0.100000,Vowel,,10.00\n'
                   '0.300000,ConsonantClosure,noncontinuant,10.00\n'
                   '0.350000,ConsonantRelease,noncontinuant,10.00\n'
                   '0.400000,Vowel,,10.00\n', encoding='utf-8')
    tg = word_doc_path(tmp_path, ['MAMMA'])
    cfg = tmp_path / 'w.cfg'
    cfg.write_text(weights, encoding='utf-8')
    out = tmp_path / 'm.csv'
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        assert run('match', '--landmarks', str(csv), '--textgrid', str(tg),
                   '--config', str(cfg), '--out', str(out)) == 2
    assert_one_line_error(capsys, 'overflows', 'weights')
    assert not out.exists()


def test_check_config_accepts_equal_weights_and_free_unspecified():
    cfg = AnalysisConfig(w_free=1.0, w_bound=1.0, unspecified_cost=0.0)
    assert check_config(cfg) is cfg


@pytest.mark.parametrize('config, message', BAD_WEIGHTS,
                         ids=['w_bound', 'unspecified_cost'])
@pytest.mark.parametrize('command', ['stats', 'lexi', 'validate',
                                     'landmarks', 'match', 'show-config'])
def test_every_command_refuses_bad_weights(tmp_path, capsys, monkeypatch,
                                           command, config, message):
    """The matcher weights are checked with the rest of the config, so
    every command refuses them in one line before it reads any input."""
    from lamit import dsp
    audio, _ = synth.vcv_stop()
    wav = tmp_path / 'vcv.wav'
    write_wav(wav, audio)
    tg = word_doc_path(tmp_path, ['PAPÀ'], dur=audio.duration)
    out = tmp_path / 'o.out'
    cfg = tmp_path / 'w.cfg'
    cfg.write_text(config, encoding='utf-8')
    argv = {'stats': ['stats', '--out', str(out)],
            'lexi': ['lexi', '--textgrid', str(tg), '--out', str(out)],
            'validate': ['validate'],
            'landmarks': ['landmarks', '--wav', str(wav), '--out',
                          str(out)],
            'match': ['match', '--wav', str(wav), '--textgrid', str(tg),
                      '--out', str(out)],
            'show-config': ['stats', '--show-config']}[command]
    reads = count_calls(monkeypatch, dsp, 'read_wav')
    assert run(*argv, '--config', str(cfg)) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == f'error: bad config: {message}\n'
    assert reads == []
    assert list(tmp_path.glob('o.*')) == []


# ------------------------------------------------- options per command

@pytest.mark.parametrize('argv', [
    ['landmarks', '--wav', 'x.wav', '--inventory', 'inv.tsv'],
    ['landmarks', '--wav', 'x.wav', '--lexicon', 'lex.tsv'],
    ['stats', '--lexicon', 'lex.tsv'],
    ['validate', '--out', 'out.txt'],
], ids=['landmarks-inventory', 'landmarks-lexicon', 'stats-lexicon',
        'validate-out'])
def test_option_a_command_does_not_read_is_a_usage_error(capsys, argv):
    assert run(*argv) == 2
    assert 'unrecognized arguments' in capsys.readouterr().err


def test_lexi_sentence_needs_a_transcription(tmp_path, capsys):
    tg = word_doc_path(tmp_path, ['MAMMA'])
    out = tmp_path / 'o.TextGrid'
    assert run('lexi', '--textgrid', str(tg), '--sentence', '36',
               '--out', str(out)) == 2
    assert_one_line_error(capsys, '--sentence', '--transcription')
    assert not out.exists()


# --------------------------------------------- TextGrid and CSV limits

def test_textgrid_error_names_the_file(tmp_path, capsys):
    tg = tmp_path / 'bad.TextGrid'
    tg.write_bytes(b'\xff\xfe\x00\xd8')
    assert run('lexi', '--textgrid', str(tg),
               '--out', str(tmp_path / 'o.TextGrid')) == 2
    assert_one_line_error(capsys, f'error: TextGrid {tg}: ')


@pytest.mark.parametrize('old, new, message', [
    ('size = 1\n', 'size = 1e400\n',
     "line 7: non-negative whole number expected, found '1e400'"),
    ('size = 1\n', 'size = 1.7\n',
     "line 7: non-negative whole number expected, found '1.7'"),
    ('intervals: size = 1\n', 'intervals: size = -1\n',
     "line 14: non-negative whole number expected, found '-1'"),
    ('xmax = 0.5\n', 'xmax = 1e400\n',
     "line 5: finite xmax above xmin expected, found '1e400'"),
    ('xmax = 0.5\n', 'xmax = 0\n',
     "line 5: finite xmax above xmin expected, found '0'"),
])
@pytest.mark.parametrize('command', ['lexi', 'match'])
def test_textgrid_counts_and_duration_exit_2(tmp_path, capsys, command,
                                             old, new, message):
    tg = word_doc_path(tmp_path, ['MAMMA'])
    text = tg.read_text('utf-8')
    assert old in text
    tg.write_text(text.replace(old, new, 1), encoding='utf-8')
    csv = tmp_path / 'lm.csv'
    csv.write_text('time_s,kind,manner,strength_dB\n', encoding='utf-8')
    out = tmp_path / 'o'
    argv = {'lexi': ['lexi', '--textgrid', str(tg), '--out', str(out)],
            'match': ['match', '--landmarks', str(csv), '--textgrid',
                      str(tg), '--out', str(out)]}[command]
    assert run(*argv) == 2
    assert_one_line_error(capsys, str(tg), message)
    assert not out.exists()


def test_landmark_csv_without_header_exits_2(tmp_path, capsys):
    csv = tmp_path / 'bare.csv'
    csv.write_text('0.100000,Vowel,,10.00\n', encoding='utf-8')
    tg = word_doc_path(tmp_path, ['MAMMA'])
    assert run('match', '--landmarks', str(csv), '--textgrid', str(tg),
               '--out', str(tmp_path / 'm.csv')) == 2
    assert_one_line_error(capsys, str(csv), 'line 1', 'header')


# ------------------------------------------- error paths, one line each

def test_wav_with_a_nan_sample_exits_2(tmp_path, capsys):
    samples = np.zeros(16000, dtype=np.float32)
    samples[100] = np.nan
    wav = tmp_path / 'nan.wav'
    scipy.io.wavfile.write(wav, 16000, samples)
    assert run('landmarks', '--wav', str(wav),
               '--out', str(tmp_path / 'o')) == 2
    assert_one_line_error(capsys, str(wav),
                          'audio contains non-finite samples')


def test_wav_block_align_off_its_bits_exits_2(tmp_path, capsys):
    # 32-bit float mono samples in 8-byte blocks
    fmt = struct.pack('<HHIIHH', 3, 1, 16000, 16000 * 8, 8, 32)
    data = np.zeros(16000, dtype='<f4').tobytes()
    body = (b'WAVE' + b'fmt ' + struct.pack('<I', len(fmt)) + fmt
            + b'data' + struct.pack('<I', len(data)) + data)
    wav = tmp_path / 'align.wav'
    wav.write_bytes(b'RIFF' + struct.pack('<I', len(body)) + body)
    assert run('landmarks', '--wav', str(wav),
               '--out', str(tmp_path / 'o')) == 2
    assert_one_line_error(capsys, str(wav), 'block align 8 does not match '
                          '32-bit mono samples')


def test_output_in_a_missing_directory_exits_2(tmp_path, capsys):
    audio, _, _ = synth.cv_syllable()
    wav = tmp_path / 'cv.wav'
    write_wav(wav, audio)
    missing = tmp_path / 'no-such-dir'
    assert run('landmarks', '--wav', str(wav),
               '--out', str(missing / 'o')) == 2
    assert_one_line_error(capsys, str(missing))
    assert run('stats', '--out', str(missing / 'freq.csv')) == 2
    assert_one_line_error(capsys, str(missing))


def test_config_naming_a_directory_exits_2(tmp_path, capsys):
    assert run('stats', '--config', str(tmp_path), '--show-config') == 2
    assert_one_line_error(capsys, str(tmp_path))


@pytest.mark.parametrize('inputs', ['neither', 'both'])
def test_match_needs_exactly_one_input(tmp_path, capsys, inputs):
    tg = word_doc_path(tmp_path, ['MAMMA'])
    csv = tmp_path / 'lm.csv'
    csv.write_text(f'{CSV_HEADER}\n', encoding='utf-8')
    argv = ['match', '--textgrid', str(tg), '--out', str(tmp_path / 'm')]
    if inputs == 'both':
        argv += ['--wav', str(tmp_path / 'cv.wav'), '--landmarks', str(csv)]
    assert run(*argv) == 2
    assert_one_line_error(capsys, 'need exactly one of --wav or --landmarks')


def test_match_with_a_comment_only_lexicon_exits_2(tmp_path, capsys):
    lex = tmp_path / 'lex.tsv'
    lex.write_text('# no entries\n', encoding='utf-8')
    csv = tmp_path / 'lm.csv'
    csv.write_text(f'{CSV_HEADER}\n0.250000,Vowel,,10.00\n',
                   encoding='utf-8')
    tg = word_doc_path(tmp_path, ['MAMMA'])
    assert run('match', '--landmarks', str(csv), '--textgrid', str(tg),
               '--lexicon', str(lex), '--out', str(tmp_path / 'm.csv')) == 2
    assert_one_line_error(capsys, 'error: empty lexicon')
    assert not (tmp_path / 'm.csv').exists()


def test_match_with_a_comma_in_a_lexicon_orthography_exits_1(tmp_path,
                                                              capsys):
    lex = tmp_path / 'lex.tsv'
    lex.write_text('MAMMA\tM AA1 MM AA\nCASA,\tK AA1 S AA\n',
                   encoding='utf-8')
    csv = tmp_path / 'lm.csv'
    csv.write_text(f'{CSV_HEADER}\n0.250000,Vowel,,10.00\n',
                   encoding='utf-8')
    tg = word_doc_path(tmp_path, ['MAMMA'])
    assert run('match', '--landmarks', str(csv), '--textgrid', str(tg),
               '--lexicon', str(lex), '--out', str(tmp_path / 'm.csv')) == 1
    assert_one_line_error(capsys, 'line 2: comma or double quote')
    assert not (tmp_path / 'm.csv').exists()


def test_textgrid_with_an_unknown_tier_class_exits_2(tmp_path, capsys):
    tg = word_doc_path(tmp_path, ['MAMMA'])
    text = tg.read_text('utf-8')
    assert '"IntervalTier"' in text
    tg.write_text(text.replace('"IntervalTier"', '"FooTier"'),
                  encoding='utf-8')
    assert run('lexi', '--textgrid', str(tg),
               '--out', str(tmp_path / 'o.TextGrid')) == 2
    assert_one_line_error(capsys, str(tg), "unknown tier class 'FooTier'")


# ------------------------------------------------ data kept between calls

@pytest.fixture
def cold_cli():
    """lamit.cli with nothing kept from earlier calls of main."""
    import lamit.cli
    for fn in (lamit.cli._parse_inventory, lamit.cli._parse_lexicon,
               lamit.cli.build_parser):
        fn.cache_clear()
    return lamit.cli


def test_main_parses_its_data_and_builds_its_parser_once(
        tmp_path, monkeypatch, cold_cli):
    from lamit import features, lexicon
    audio, _ = synth.vcv_stop()
    wav = tmp_path / 'vcv.wav'
    write_wav(wav, audio)
    tg = word_doc_path(tmp_path, ['PAPÀ'], dur=audio.duration)
    inventories = count_calls(monkeypatch, features, 'load_inventory')
    lexicons = count_calls(monkeypatch, lexicon, 'load_lexicon')
    outs = []
    for name in ('a.csv', 'b.csv'):
        outs.append(tmp_path / name)
        assert run('match', '--wav', str(wav), '--textgrid', str(tg),
                   '--out', str(outs[-1])) == 0
    assert (len(inventories), len(lexicons)) == (1, 1)
    assert cold_cli.build_parser.cache_info().misses == 1
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_a_lexicon_rewritten_between_calls_is_read_again(tmp_path, cold_cli):
    lex = tmp_path / 'lex.tsv'
    csv = tmp_path / 'lm.csv'
    csv.write_text(f'{CSV_HEADER}\n0.250000,Vowel,,10.00\n',
                   encoding='utf-8')
    tg = word_doc_path(tmp_path, ['MAMMA'])
    out = tmp_path / 'm.csv'
    candidates = []
    for entries in ('MAMMA\tM AA1 MM AA\n', 'CASA\tK AA1 S AA\n'):
        lex.write_text(entries, encoding='utf-8')
        assert run('match', '--landmarks', str(csv), '--textgrid', str(tg),
                   '--lexicon', str(lex), '--out', str(out)) == 0
        candidates.append(out.read_text('utf-8').split('\n')[1].split(',')[1])
    assert candidates == ['MAMMA', 'CASA']


def test_a_failed_parse_is_not_kept(tmp_path, capsys, cold_cli):
    lex = tmp_path / 'lex.tsv'
    lex.write_text('MAMMA\tM AA1 MM AA\nCASA\tK AA1 XX AA\n',
                   encoding='utf-8')
    for _ in range(2):
        assert run('validate', '--lexicon', str(lex)) == 1
        assert 'lexicon-resolution: FAIL - lexicon: unknown label XX, ' \
            'position 3, line 2' in capsys.readouterr().out
    inventory = tmp_path / 'inv.tsv'
    shipped = (data_dir() / 'italian_features.tsv').read_text('utf-8')
    inventory.write_text('phoneme\tbroken\n' + shipped, encoding='utf-8')
    for _ in range(2):
        assert run('stats', '--inventory', str(inventory)) == 1
        assert_one_line_error(capsys, 'inventory: ')
    inventory.write_text(shipped, encoding='utf-8')
    assert run('stats', '--inventory', str(inventory),
               '--out', str(tmp_path / 'freq.csv')) == 0


# ------------------------------------------------------------- dispatch

def test_subcommands_and_cmd_functions_match_one_to_one(capsys):
    import argparse
    import lamit.cli
    (subparsers,) = [action for action in lamit.cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    commands = {name.removeprefix('cmd_') for name in vars(lamit.cli)
                if name.startswith('cmd_')}
    assert set(subparsers.choices) == commands
    assert len(commands) == 5
    for argv in [['--help']] + [[sub, '--help'] for sub in sorted(commands)]:
        assert run(*argv) == 0
