"""The README's library example runs as written, and the names it gives
exist."""
import importlib
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


def readme_module_names() -> list[tuple[str, list[str]]]:
    """(module, attribute path) for each `module.name` in README's
    inline code spans, where `module` is a lamit module."""
    modules = sorted(path.stem for path in
                     (README.parent / 'src' / 'lamit').glob('*.py'))
    name = re.compile(r'(?<![\w.])(?:lamit\.)?(' + '|'.join(modules) +
                      r')((?:\.\w+)+)')
    text = re.sub(r'^```.*?^```', '', README.read_text('utf-8'),
                  flags=re.S | re.M)
    return [(module, path.split('.')[1:])
            for span in re.findall(r'`([^`]+)`', text)
            for module, path in name.findall(span)]


def test_readme_names_resolve():
    names = readme_module_names()
    assert ('features', ['DATA_DIR']) in names
    missing = []
    for module, path in names:
        obj = importlib.import_module(f'lamit.{module}')
        for part in path:
            if not hasattr(obj, part):
                missing.append('.'.join([module] + path))
                break
            obj = getattr(obj, part)
    assert missing == []
