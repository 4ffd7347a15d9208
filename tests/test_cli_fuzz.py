"""Every error is one line: byte-level edits of small inputs of each kind,
run through `cli.main`, end in exit 0, or in exit 1, 2 or 3 with one
stderr line and no traceback.  A warning, which would print lines of its
own, is raised as an error."""
import contextlib
import io
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamit.cli import main
from lamit.dsp import write_wav
from lamit.features import DATA_DIR
from lamit.textgrid import (AnnotationDocument, Interval, IntervalTier,
                            serialize_textgrid)

import synth

AUDIO = synth.vcv_stop()[0]
WORDS = ['MAMMA', 'BENE', 'PAPÀ', 'MAMMA']


def word_grid(words) -> bytes:
    step = AUDIO.duration / len(words)
    return serialize_textgrid(AnnotationDocument(AUDIO.duration, [
        IntervalTier('Word', [Interval(i * step, (i + 1) * step, w)
                              for i, w in enumerate(words)])])).encode()


def data_lines(name, keep) -> bytes:
    lines = (DATA_DIR / name).read_text('utf-8').splitlines(keepends=True)
    return ''.join(ln for i, ln in enumerate(lines) if keep(i, ln)).encode()


# the seed of each kind, and the command line that reads it; {kind} is
# the file of that kind, the edited one for the kind under test
SEEDS = {
    'wav': None,                                # AUDIO, written below
    'textgrid': word_grid(WORDS),
    'landmarks': (b'time_s,kind,manner,strength_dB\n0.150000,Vowel,,12.00\n'
                  b'0.300000,ConsonantClosure,noncontinuant,20.00\n'
                  b'0.360000,ConsonantRelease,noncontinuant,18.50\n'
                  b'0.510000,Vowel,,11.25\n'),
    'config': (b'frame_step = 0.005\nlow_band = 0 400\nf0_min = 50\n'
               b'ror_window = 0.02\ngate_db = 60\nw_free = 2\n'),
    'inventory': (DATA_DIR / 'italian_features.tsv').read_bytes(),
    'lexicon': data_lines('lamit_lexicon.tsv', lambda i, ln: i == 0 or (
        ln.split('\t')[0] in WORDS)),
    'corpus': data_lines('lamit_transcriptions.tsv', lambda i, ln: i < 4),
}
ARGV = {
    'wav': ['match', '--wav', '{wav}', '--textgrid', '{textgrid}'],
    'textgrid': ['lexi', '--textgrid', '{textgrid}', '--lexicon',
                 '{lexicon}'],
    'landmarks': ['match', '--landmarks', '{landmarks}', '--textgrid',
                  '{textgrid}', '--lexicon', '{lexicon}'],
    'config': ['match', '--wav', '{wav}', '--textgrid', '{textgrid}',
               '--config', '{config}'],
    'inventory': ['stats', '--inventory', '{inventory}', '--corpus',
                  '{corpus}'],
    'lexicon': ['lexi', '--textgrid', '{textgrid}', '--lexicon',
                '{lexicon}'],
    'corpus': ['stats', '--corpus', '{corpus}'],
}
# the second label's closing quote, dropped: the string runs on over the
# next interval, which a TextGrid error used to print line by line
UNCLOSED = SEEDS['textgrid'].index(b'"BENE"') + 5
# a byte inserted into the first float32 sample of the WAV: a signalling
# NaN, whose cast to float64 used to warn
SIGNALLING = 56

# bytes an edit writes: any byte, or one that means something to a parser
BYTES = st.one_of(st.integers(0, 255),
                  st.sampled_from(b'"\n\t ,=.-+0159eE[]#\'\xc3'))
EDITS = st.lists(st.tuples(
    st.sampled_from(['replace', 'insert', 'delete', 'truncate']),
    # near the start, where the headers are, or anywhere
    st.one_of(st.integers(0, 96), st.integers(0, 1 << 16)),
    st.lists(BYTES, min_size=1, max_size=4).map(bytes)),
    min_size=1, max_size=4)


def edited(data: bytes, edits) -> bytes:
    for op, at, new in edits:
        at %= len(data) + 1
        if op == 'replace':
            data = data[:at] + new + data[at + len(new):]
        elif op == 'insert':
            data = data[:at] + new + data[at:]
        elif op == 'delete':
            data = data[:at] + data[at + 1:]
        else:
            data = data[:at]
    return data


@pytest.fixture(scope='module')
def inputs(tmp_path_factory):
    """The unedited seed of every kind, in its own file."""
    root = tmp_path_factory.mktemp('fuzz')
    paths = {kind: root / f'seed.{kind}' for kind in SEEDS}
    write_wav(paths['wav'], AUDIO)
    for kind, data in SEEDS.items():
        if data is not None:
            paths[kind].write_bytes(data)
    return root, paths


def run_main(kind, paths, out):
    argv = [a.format(**{k: str(p) for k, p in paths.items()})
            for a in ARGV[kind]]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter('error')
        code = main([*argv, '--out', str(out)])
    return code, stderr.getvalue()


@pytest.mark.parametrize('kind', ARGV)
def test_seeds_are_read(inputs, kind):
    root, paths = inputs
    code, err = run_main(kind, paths, root / 'out')
    assert code == 0, err


@pytest.mark.parametrize('kind', ARGV)
@settings(max_examples=40, deadline=None)
@given(edits=EDITS)
@example(edits=[('delete', UNCLOSED, b'')])
@example(edits=[('insert', SIGNALLING, b'\x00')])
def test_edited_input_exits_0_or_with_one_line(inputs, kind, edits):
    root, paths = inputs
    data = paths[kind].read_bytes()
    bad = root / f'edited.{kind}'
    bad.write_bytes(edited(data, edits))
    code, err = run_main(kind, {**paths, kind: bad}, root / 'out')
    assert 'Traceback' not in err
    if code != 0:
        assert code in (1, 2, 3)
        assert err.startswith('error: ') and err.count('\n') == 1, err
