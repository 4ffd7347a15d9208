import collections
import random
import re

import pytest

from lamit import cli, corpus
from lamit.access import MatchResult, WordMatch
from lamit.corpus import (TranscribedSentence, TranscribedWord,
                          TranscriptionError, detect_syntactic_doubling,
                          frequency_csv, parse_transcription,
                          phoneme_frequencies)
from lamit.features import MajorClass, PhonemeId
from lamit.lexicon import PhonemeToken

SENTENCE_36 = "'mamma 'e ppa'pa 'tti 'vɔʎʎono 'bene"


def brute_count(lines, doubling_as_singleton=True):
    """Character-level recount, independent of the corpus tokenizer."""
    units = ['tsts', 'dzdz', 'tʃtʃ', 'dʒdʒ', 'ts', 'dz', 'tʃ', 'dʒ']
    gem2sing = {'ll': 'l', 'ʎʎ': 'ʎ', 'rr': 'r', 'nn': 'n', 'mm': 'm',
                'ɲɲ': 'ɲ', 'pp': 'p', 'bb': 'b', 'kk': 'k', 'gg': 'g',
                'tt': 't', 'dd': 'd', 'ff': 'f', 'vv': 'v', 'ss': 's',
                'ʃʃ': 'ʃ', 'tʃtʃ': 'tʃ', 'dʒdʒ': 'dʒ', 'tsts': 'ts',
                'dzdz': 'dz'}
    counts = collections.Counter()
    for line in lines:
        for word in line.split():
            s = word.replace("'", '')
            toks = []
            i = 0
            while i < len(s):
                for u in units:
                    if s.startswith(u, i):
                        toks.append(u)
                        i += len(u)
                        break
                else:
                    toks.append(s[i])
                    i += 1
            merged = []
            for t in toks:
                if merged and merged[-1] == t and t not in 'aeiouɛɔjw':
                    merged[-1] = t + t
                else:
                    merged.append(t)
            if doubling_as_singleton and merged and merged[0] in gem2sing:
                merged[0] = gem2sing[merged[0]]
            counts.update(merged)
    return counts


def test_parse_sentence_36(italian):
    sent = parse_transcription(SENTENCE_36, italian, sentence_id=36)
    assert len(sent.words) == 6
    assert [''.join(t.phoneme.ipa for t in w.phonemes)
            for w in sent.words] == [
        'mamma', 'e', 'ppapa', 'tti', 'vɔʎʎono', 'bene']
    assert [(i, g.arpabet) for i, g in sent.doubling_events] == [
        (2, 'PP'), (3, 'TT')]
    # lexical geminates are one token
    assert [t.phoneme.ipa for t in sent.words[0].phonemes] == \
        ['m', 'a', 'mm', 'a']
    assert [t.stressed for t in sent.words[0].phonemes] == \
        [False, True, False, False]


def test_parsed_sentence_is_immutable(italian):
    sent = parse_transcription(SENTENCE_36, italian, sentence_id=36)
    word = sent.words[0]
    mutations = [
        lambda: sent.words.append(word),
        lambda: setattr(sent, 'id', 7),
        lambda: sent.doubling_events.append(sent.doubling_events[0]),
        lambda: word.phonemes.append(word.phonemes[0]),
        lambda: setattr(word, 'doubled', True),
    ]
    for mutate in mutations:
        with pytest.raises(AttributeError):
            mutate()
    assert sent.id == 36 and len(sent.words) == 6
    assert len(sent.doubling_events) == 2 and len(word.phonemes) == 4


def test_parse_minimal(italian):
    sent = parse_transcription("'a", italian)
    assert len(sent.words) == 1
    word = sent.words[0]
    assert len(word.phonemes) == 1
    assert word.phonemes[0].phoneme.ipa == 'a'
    assert word.phonemes[0].stressed


def test_parse_bad_symbol_offset(italian):
    # q sits at raw character offset 7 of the line
    with pytest.raises(TranscriptionError, match='offset 7'):
        parse_transcription("'ala 'aqa", italian)


def test_parse_geminate_split_by_stress_mark(italian):
    sent = parse_transcription("bik'kjere", italian)
    assert [t.phoneme.ipa for t in sent.words[0].phonemes] == \
        ['b', 'i', 'kk', 'j', 'e', 'r', 'e']
    assert [k for k, t in enumerate(sent.words[0].phonemes)
            if t.stressed] == [4]


def test_parse_affricate_geminate_forms(italian):
    for spelling in ("unistituts'tsjone", 'unistitutstsjone'):
        sent = parse_transcription(spelling, italian)
        syms = [t.phoneme.ipa for t in sent.words[0].phonemes]
        assert 'tsts' in syms


def test_italian_alphabet_is_derived_from_its_inventory(italian):
    """The parser and the validate recount read their units from the
    inventory: its multi-character singletons, whose doubling is their
    geminate; on the shipped Italian one each gets back the tables it
    once spelled out."""
    units = ('ts', 'dz', 'tʃ', 'dʒ')
    gem2sing = {'ll': 'l', 'ʎʎ': 'ʎ', 'rr': 'r', 'nn': 'n', 'mm': 'm',
                'ɲɲ': 'ɲ', 'pp': 'p', 'bb': 'b', 'kk': 'k', 'gg': 'g',
                'tt': 't', 'dd': 'd', 'ff': 'f', 'vv': 'v', 'ss': 's',
                'ʃʃ': 'ʃ', 'tʃtʃ': 'tʃ', 'dʒdʒ': 'dʒ', 'tsts': 'ts',
                'dzdz': 'dz'}
    vowels_and_glides = set('aeiouɛɔjw')
    pattern, undoubled = corpus._alphabet(italian)
    *multi, anything = pattern.pattern.split('|')
    assert anything == '.' and pattern.flags & re.DOTALL
    # longest first; the order among units of one length does not matter
    assert sorted(multi) == sorted(units)
    assert [len(u) for u in multi] == [len(u) for u in units]
    assert undoubled == vowels_and_glides
    recount_units, recount_gem2sing, vocalic = cli._recount_alphabet(italian)
    assert sorted(recount_units) == sorted(units)
    assert [len(u) for u in recount_units] == [len(u) for u in units]
    assert recount_gem2sing == gem2sing
    assert vocalic == vowels_and_glides


def test_a_doubled_letter_is_a_geminate_only_if_not_vocalic(italian,
                                                            english):
    with pytest.raises(TranscriptionError, match="unknown symbol 'zz'"):
        parse_transcription("'azza", italian)
    sent = parse_transcription("'bɛll 'ɪɪ", english)    # l is a glide
    assert [[t.phoneme.ipa for t in w.phonemes] for w in sent.words] == \
        [['b', 'ɛ', 'l', 'l'], ['ɪ', 'ɪ']]
    with pytest.raises(TranscriptionError, match="unknown symbol 'tt'"):
        parse_transcription("'bɛtt", english)
    with pytest.raises(TranscriptionError,
                       match="^unknown symbol 'dʒdʒ' at offset 3$"):
        parse_transcription("'bædʒdʒ", english)


@pytest.mark.parametrize('name', ['italian', 'english'])
def test_a_doubled_consonant_is_its_geminate_or_an_error(name, request):
    """One rule for every singleton c, one character long or more: a
    doubled consonant c + c is the inventory's geminate or an unknown
    symbol; a doubled vowel or glide is two phonemes.  The validate
    recount counts each line that parses as the parser does."""
    inv = request.getfixturevalue(name)

    def ipas(line):
        return [[t.phoneme.ipa for t in w.phonemes]
                for w in parse_transcription(line, inv).words]

    def recount_agrees(line):
        table = phoneme_frequencies(corpus.parse_corpus(line, inv), inv)
        assert {p.ipa: n for p, n in table.counts.items()} == \
            dict(cli._independent_recount(line, inv)), line

    geminates = {p.ipa for p in inv.geminates()}
    for c in inv.singletons():
        cc = c.ipa + c.ipa
        if c.major_class is not MajorClass.CONSONANT:
            line = f"{cc} 'b{cc}b"
            assert ipas(line) == [[c.ipa, c.ipa], ['b', c.ipa, c.ipa, 'b']]
            recount_agrees(line)
        elif cc in geminates:
            line = f"{cc}a 'a{cc}a"
            assert ipas(line) == [[cc, 'a'], ['a', cc, 'a']]
            recount_agrees(line)
        else:
            with pytest.raises(TranscriptionError,
                               match=f'^unknown symbol {re.escape(repr(cc))}'
                                     ' at offset 2$'):
                parse_transcription(f"'a{cc}a", inv)


def test_english_diphthongs_are_one_phoneme(english):
    sent = parse_transcription("'taɪm 'haʊs 'bɔɪ", english)
    assert [[t.phoneme.ipa for t in w.phonemes] for w in sent.words] == \
        [['t', 'aɪ', 'm'], ['h', 'aʊ', 's'], ['b', 'ɔɪ']]
    assert [[t.stressed for t in w.phonemes] for w in sent.words] == \
        [[False, True, False], [False, True, False], [False, True]]
    pattern, _ = corpus._alphabet(english)
    assert sorted(pattern.pattern.split('|')) == \
        ['.', 'aɪ', 'aʊ', 'dʒ', 'tʃ', 'ɔɪ']


def test_doubling_detection_examples(lamit_corpus, lamit_lexicon):
    s36 = next(s for s in lamit_corpus if s.id == 36)
    ev = detect_syntactic_doubling(s36, lamit_lexicon)
    assert [(t, w, g.arpabet) for t, w, g in ev] == [
        (1, 2, 'PP'), (2, 3, 'TT')]
    s1 = next(s for s in lamit_corpus if s.id == 1)
    ev1 = detect_syntactic_doubling(s1, lamit_lexicon)
    assert any(g.arpabet == 'BB' for _, _, g in ev1)


def test_sentence_initial_doubling_has_no_trigger(italian, lamit_lexicon):
    # index -1 would name the sentence's last word as the trigger
    for line in ("ppa'pa", "ppa'pa 'e"):
        sent = parse_transcription(line, italian)
        with pytest.raises(TranscriptionError, match='word 0'):
            detect_syntactic_doubling(sent, lamit_lexicon)


def test_doubling_target_needs_a_singleton_initial_entry(italian,
                                                         lamit_lexicon):
    sent = parse_transcription("'e ppapa'pa", italian)
    with pytest.raises(TranscriptionError, match='doubling target at word '
                       '1 has no singleton-initial lexicon entry'):
        detect_syntactic_doubling(sent, lamit_lexicon)


def test_derived_facts_follow_their_source(italian):
    pp = PhonemeId('pp', 'PP', MajorClass.CONSONANT, singleton_base='p')
    assert pp.geminate and not italian.phoneme('p').geminate
    stressed_a = PhonemeToken(italian.phoneme('a'), True)
    doubled = TranscribedWord((PhonemeToken(pp), stressed_a))
    plain = TranscribedWord((stressed_a,))
    assert doubled.doubled and not plain.doubled
    sent = TranscribedSentence(5, (plain, doubled, plain, doubled))
    assert sent.doubling_events == ((1, pp), (3, pp))
    assert TranscribedSentence(6, (plain,)).doubling_events == ()
    assert WordMatch(0).no_evidence
    assert not WordMatch(0, (MatchResult('A', 0.0, 1),)).no_evidence


def test_word_without_phonemes_is_refused(italian):
    # `doubled` and `doubling_events` read a word's first phoneme
    word = TranscribedWord((PhonemeToken(italian.phoneme('a'), True),))
    for build in (lambda: TranscribedWord(()),
                  lambda: TranscribedWord(phonemes=()),
                  lambda: TranscribedWord._make([()]),
                  lambda: word._replace(phonemes=())):
        with pytest.raises(TranscriptionError, match='no phonemes'):
            build()
    assert word._replace(phonemes=word.phonemes * 2).phonemes == \
        word.phonemes * 2
    # the parser drops a word of stress marks alone
    assert parse_transcription("'a ' 'e", italian).words == \
        parse_transcription("'a 'e", italian).words


def test_doubling_absent(italian, lamit_lexicon):
    sent = parse_transcription("'mamma 'bene", italian)
    assert detect_syntactic_doubling(sent, lamit_lexicon) == []


def test_all_doubling_targets_resolve(lamit_corpus, lamit_lexicon):
    for sent in lamit_corpus:
        detect_syntactic_doubling(sent, lamit_lexicon)   # raises on failure


def test_frequencies_single_token(italian):
    table = phoneme_frequencies([parse_transcription("'a", italian)], italian)
    a = italian.phoneme('a')
    assert table.counts[a] == 1
    assert table.total == 1
    assert table.percent(a) == pytest.approx(100.0)


def test_frequencies_empty_corpus(italian):
    with pytest.raises(TranscriptionError, match='empty corpus'):
        phoneme_frequencies([], italian)


def test_frequencies_of_a_corpus_without_tokens(italian):
    table = phoneme_frequencies(corpus.parse_corpus("1.\t'", italian),
                                italian)
    assert table.total == 0
    assert [table.percent(p) for p in italian.phonemes] == \
        [0.0] * len(italian.phonemes)
    assert frequency_csv(table) == 'phoneme,arpabet,count,percent\n'


def test_frequencies_conservation(lamit_corpus, italian):
    table = phoneme_frequencies(lamit_corpus, italian)
    assert sum(table.counts.values()) == table.total
    assert sum(map(table.percent, table.counts)) == \
        pytest.approx(100.0, abs=0.05)


def test_frequencies_permutation_invariant(lamit_corpus, italian):
    table = phoneme_frequencies(lamit_corpus, italian)
    shuffled = list(lamit_corpus)
    random.Random(7).shuffle(shuffled)
    assert phoneme_frequencies(shuffled, italian).counts == table.counts


def test_published_values(lamit_corpus, italian):
    table = phoneme_frequencies(lamit_corpus, italian)
    assert table.percent(italian.phoneme('a')) == pytest.approx(12.99, abs=0.15)
    assert table.percent(italian.phoneme('ll')) == pytest.approx(0.96, abs=0.15)


def test_total_token_count_frozen(lamit_corpus, italian):
    # value fixed by the independent character-level counting oracle
    table = phoneme_frequencies(lamit_corpus, italian)
    assert table.total == 4206


def test_counting_oracle_subsets(lamit_corpus, italian):
    rng = random.Random(11)
    raw_lines = {}
    import importlib.resources as resources
    text = (resources.files('lamit') / 'data' /
            'lamit_transcriptions.tsv').read_text('utf-8')
    for ln in text.splitlines():
        if ln.startswith('#') or not ln.strip():
            continue
        num, _, rest = ln.partition('\t')
        raw_lines[int(num.rstrip('.'))] = rest
    for _ in range(10):
        ids = rng.sample(sorted(raw_lines), 5)
        subset = [s for s in lamit_corpus if s.id in ids]
        table = phoneme_frequencies(subset, italian)
        oracle = brute_count([raw_lines[i] for i in ids])
        assert {p.ipa: n for p, n in table.counts.items()} == dict(oracle)


def test_doubling_counts_as_citation_singleton(italian):
    sent = parse_transcription("'e ppa'pa", italian)
    table = phoneme_frequencies([sent], italian)
    p, pp = italian.phoneme('p'), italian.phoneme('pp')
    assert table.counts[p] == 2 and pp not in table.counts
    assert table.total == 5


def test_frequency_csv_format(lamit_corpus, italian):
    table = phoneme_frequencies(lamit_corpus, italian)
    csv = frequency_csv(table)
    lines = csv.strip().split('\n')
    assert lines[0] == 'phoneme,arpabet,count,percent'
    counts = [int(ln.split(',')[2]) for ln in lines[1:]]
    assert counts == sorted(counts, reverse=True)
    assert lines[1].split(',')[0] == 'a'
