"""`lamit match` output bytes against recorded expectations.

`tests/fixtures/match_outputs.json` holds, for each synthetic utterance,
the landmark CSV fed to `match --landmarks` and the `matches.csv` and
orphan files that `match --wav` and `match --landmarks` wrote when they
were recorded.  Any change to the matcher, the cue rules or the front end
that moves a byte fails here.  To re-record after a deliberate change of
output:

    PYTHONPATH=src:tests python tests/test_match_outputs.py
"""
import json
import sys
from pathlib import Path

import pytest

from lamit.cli import main
from lamit.dsp import write_wav
from lamit.textgrid import serialize_textgrid

import synth

RECORD = Path(__file__).parent / 'fixtures' / 'match_outputs.json'
UTTERANCES = synth.utterances()


def run_match(tmp, name, audio, landmarks_csv=None):
    """Write the inputs under tmp, run `match --wav` and, given a landmark
    CSV, `match --landmarks`; return every output file's bytes."""
    wav = tmp / f'{name}.wav'
    write_wav(wav, audio)
    tg = tmp / f'{name}.TextGrid'
    tg.write_text(serialize_textgrid(synth.word_doc(audio.duration)),
                  encoding='utf-8')
    if landmarks_csv is None:
        assert main(['landmarks', '--wav', str(wav),
                     '--out', str(tmp / f'{name}_lm')]) == 0
        landmarks_csv = (tmp / f'{name}_lm.csv').read_bytes().decode()
    else:
        (tmp / f'{name}_lm.csv').write_text(landmarks_csv, encoding='utf-8')
    outputs = {'landmarks_csv': landmarks_csv}
    for source, arg, path in (('wav', '--wav', wav),
                              ('landmarks', '--landmarks',
                               tmp / f'{name}_lm.csv')):
        out = tmp / f'{name}.{source}.csv'
        assert main(['match', arg, str(path), '--textgrid', str(tg),
                     '--out', str(out)]) == 0
        orphans = out.with_suffix('.orphans.txt')
        outputs[f'{source}_matches'] = out.read_bytes().decode()
        outputs[f'{source}_orphans'] = (orphans.read_bytes().decode()
                                        if orphans.exists() else None)
    return outputs


def recorded():
    return json.loads(RECORD.read_text('utf-8'))


@pytest.mark.parametrize('name', list(UTTERANCES))
def test_match_outputs_equal_recording(tmp_path, name):
    want = recorded()[name]
    got = run_match(tmp_path, name, UTTERANCES[name],
                    want['landmarks_csv'])
    for key in ('wav_matches', 'wav_orphans', 'landmarks_matches',
                'landmarks_orphans'):
        assert got[key] == want[key], key


def test_recording_covers_words_and_orphans():
    rec = recorded()
    assert set(rec) == set(UTTERANCES)
    # the concatenation ranks several words and leaves orphans either way
    both = rec['concatenated']
    for source in ('wav', 'landmarks'):
        assert both[f'{source}_orphans']
        ranked = {ln.split(',')[0]
                  for ln in both[f'{source}_matches'].splitlines()[1:]
                  if '<no evidence>' not in ln}
        assert len(ranked) >= 5


if __name__ == '__main__':
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        record = {name: run_match(Path(d), name, audio)
                  for name, audio in UTTERANCES.items()}
    RECORD.write_text(json.dumps(record, indent=1, ensure_ascii=False)
                      + '\n', encoding='utf-8')
    print(f'wrote {RECORD} ({len(record)} utterances)', file=sys.stderr)
