"""The README's library example runs as written."""
import re
from pathlib import Path

from lamit import lexicon
from lamit.dsp import write_wav

import synth

README = Path(__file__).resolve().parents[1] / 'README.md'


def first_python_block() -> str:
    return re.search(r'^```python\n(.*?)^```', README.read_text('utf-8'),
                     re.S | re.M).group(1)


def test_library_example_prints_ranked_words(tmp_path, monkeypatch, capsys,
                                             italian):
    code = first_python_block()
    assert "dsp.read_wav('utterance.wav')" in code
    write_wav(tmp_path / 'utterance.wav', synth.utterances()['concatenated'])
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), 'exec'), {})
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()]
    words = lexicon.load_lamit_lexicon(italian).entries
    assert 1 <= len(rows) <= 5
    assert rows[0][0] == '1'
    for rank, word, score in rows:
        assert int(rank) >= 1 and word in words and float(score) >= 0.0
