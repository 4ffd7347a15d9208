import pytest

from lamit.features import DATA_DIR, LookupError_, PLUS, MINUS
from lamit.lexicon import (Lexicon, LexiconParseError, expand_word,
                           load_lamit_lexicon, load_lexicon,
                           serialize_lexicon)


def arpabet(tokens, inv):
    """The tokens of a one-entry lexicon with these ARPAbet labels."""
    return load_lexicon(f'W\t{tokens}', inv).entry('W').phonemes


def test_parse_arpabet_mamma(italian):
    toks = arpabet('M AA1 MM AA', italian)
    assert [t.phoneme.ipa for t in toks] == ['m', 'a', 'mm', 'a']
    assert [t.stressed for t in toks] == [False, True, False, False]


def test_parse_arpabet_bene(italian):
    toks = arpabet('B EH1 N EY', italian)
    assert [t.phoneme.ipa for t in toks] == ['b', 'ɛ', 'n', 'e']
    assert toks[1].stressed


def test_parse_arpabet_empty(italian):
    assert len(load_lexicon('', italian)) == 0
    with pytest.raises(LexiconParseError, match='line 1: no phoneme'):
        load_lexicon('W\t', italian)


def test_parse_arpabet_unknown_label(italian):
    with pytest.raises(LexiconParseError, match='QQ, position 2'):
        arpabet('M QQ AA', italian)


def test_load_lexicon_unknown_label_names_line(italian):
    with pytest.raises(LexiconParseError, match='unknown label QQ.*line 1'):
        load_lexicon('X QQ', italian)


def test_parse_arpabet_stress_on_consonant(italian):
    with pytest.raises(LexiconParseError, match='non-vowel'):
        arpabet('M1 AA', italian)


def test_shipped_lexicon_size(lamit_lexicon):
    assert len(lamit_lexicon) == 563


def test_all_entries_resolve_with_single_stress(lamit_lexicon):
    for entry in lamit_lexicon.entries.values():
        assert entry.phonemes
        assert sum(t.stressed for t in entry.phonemes) <= 1
        for t in entry.phonemes:
            if t.stressed:
                assert t.phoneme.major_class.value == 'vowel'


def test_load_lexicon_line_error(italian):
    with pytest.raises(LexiconParseError, match='line 1'):
        load_lexicon('X\tQQ\n', italian)


def test_load_lexicon_zoo_line(italian):
    lex = load_lexicon('ZOO\tDZ AO1 OW\n', italian)
    toks = lex.entry('zoo').phonemes
    assert [t.phoneme.ipa for t in toks] == ['dz', 'ɔ', 'o']
    assert toks[1].stressed


def test_duplicate_orthography_refused_with_both_lines(italian):
    with pytest.raises(LexiconParseError) as e:
        load_lexicon('LA\tL AA1\n# a comment\n\nla  L AA\n', italian)
    assert str(e.value) == 'line 4: duplicate entry LA, already on line 1'
    # the shipped lexicon with its line 2 repeated at its end
    text = (DATA_DIR / 'lamit_lexicon.tsv').read_text('utf-8')
    lines = text.splitlines()
    assert lines[1] == 'A\tAA1'
    with pytest.raises(LexiconParseError) as e:
        load_lexicon(text + lines[1] + '\n', italian)
    assert str(e.value) == \
        f'line {len(lines) + 1}: duplicate entry A, already on line 2'


def test_expand_word_mamma(lamit_lexicon, italian):
    from lamit.features import features_of
    bundles = expand_word(lamit_lexicon, 'MAMMA')
    assert len(bundles) == 4
    assert bundles[0] == features_of(italian, 'm')
    assert bundles[2] == features_of(italian, 'm')   # MM inherits M
    assert bundles[1] == features_of(italian, 'a')


def test_expand_word_single_vowel(lamit_lexicon):
    bundles = expand_word(lamit_lexicon, 'A')
    assert len(bundles) == 1
    assert bundles[0].value('vowel') is PLUS
    assert bundles[0].value('low') is PLUS
    assert bundles[0].value('back') is MINUS


def test_expand_word_unknown(lamit_lexicon):
    with pytest.raises(LookupError_):
        expand_word(lamit_lexicon, 'XYZZY')


def test_expand_word_case_folds(lamit_lexicon):
    assert expand_word(lamit_lexicon, 'mamma') == \
        expand_word(lamit_lexicon, 'MAMMA')


def test_lexicon_roundtrip(lamit_lexicon, italian):
    again = load_lexicon(serialize_lexicon(lamit_lexicon), italian)
    assert again.entries == lamit_lexicon.entries


def test_expand_deterministic(lamit_lexicon):
    a = expand_word(lamit_lexicon, 'BENE')
    b = expand_word(lamit_lexicon, 'BENE')
    assert a == b


def test_accented_orthographies_are_distinct(lamit_lexicon):
    e = lamit_lexicon.entry('E')
    e_grave = lamit_lexicon.entry('È')
    assert e.phonemes != e_grave.phonemes
    assert e.phonemes[0].phoneme.ipa == 'e'
    assert e_grave.phonemes[0].phoneme.ipa == 'ɛ'


def test_lexicon_entries_cannot_be_deleted(italian):
    lex = load_lamit_lexicon(italian)
    with pytest.raises(TypeError):
        del lex.entries['MAMMA']
    assert 'MAMMA' in lex


def test_lexicon_entries_cannot_be_added(lamit_lexicon):
    with pytest.raises(TypeError):
        lamit_lexicon.entries['NUOVO'] = lamit_lexicon.entry('MAMMA')
    with pytest.raises(AttributeError):
        lamit_lexicon.entries.clear()
    assert 'NUOVO' not in lamit_lexicon


def test_lexicon_fields_cannot_be_rebound(lamit_lexicon, italian):
    for name, value in (('entries', {}), ('inventory', italian)):
        with pytest.raises(AttributeError):
            setattr(lamit_lexicon, name, value)


def test_lexicon_and_inventory_are_unhashable(lamit_lexicon, italian):
    for obj in (lamit_lexicon, italian):
        with pytest.raises(TypeError):
            hash(obj)
        for name in obj._fields:
            with pytest.raises(AttributeError):
                delattr(obj, name)


def test_lexicon_does_not_share_the_callers_dict(lamit_lexicon, italian):
    entries = {'MAMMA': lamit_lexicon.entry('MAMMA')}
    lex = Lexicon(entries, italian)
    del entries['MAMMA']
    assert len(lex) == 1 and 'MAMMA' in lex


def test_lexicon_ipa_index_read_only(lamit_lexicon):
    index = lamit_lexicon.by_ipa_sequence
    mamma = lamit_lexicon.entry('MAMMA')
    key = tuple(t.phoneme.ipa for t in mamma.phonemes)
    assert index[key] is mamma
    assert lamit_lexicon.by_ipa_sequence is index
    with pytest.raises(TypeError):
        index[key] = lamit_lexicon.entry('BENE')


@pytest.mark.parametrize('orth', ['casa,', '"CASA', 'CA"SA'])
def test_comma_in_orthography_names_the_line(italian, orth):
    """matches.csv writes an orthography unquoted, so a comma in one
    would add a column and a double quote would open a quoted field."""
    with pytest.raises(LexiconParseError, match='line 2: comma or double '
                       f'quote in orthography {orth!r}'):
        load_lexicon(f'MAMMA\tM AA1 MM AA\n{orth}\tK AA1 S AA\n', italian)
