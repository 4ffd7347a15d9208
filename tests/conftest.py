import pytest
from hypothesis import settings

from lamit import corpus as corpus_mod
from lamit import features
from lamit import lexicon as lexicon_mod

# `--hypothesis-profile=ci`: the same examples on every run, and no
# per-example deadline for a slow shared runner to trip
settings.register_profile('ci', derandomize=True, deadline=None)


@pytest.fixture(scope='session')
def italian():
    return features.load_italian()


@pytest.fixture(scope='session')
def english():
    return features.load_english()


@pytest.fixture(scope='session')
def lamit_lexicon(italian):
    return lexicon_mod.load_lamit_lexicon(italian)


@pytest.fixture(scope='session')
def lamit_corpus(italian):
    text = (features.DATA_DIR / 'lamit_transcriptions.tsv').read_text('utf-8')
    return corpus_mod.parse_corpus(text, italian)
