"""The shipped-data parsers against the quadratic parsers they replaced.

`load_inventory`, `load_lexicon`, `parse_transcription`/`parse_corpus`
and `phoneme_frequencies` used to do work per token that grew with the
inventory or the number of units tried.  The old versions are kept here
as oracles, changed only where a later rule refuses more input (a
geminate row's own feature cells, a geminate named as a base, a
repeated lexicon entry): on the shipped files, on seeded mutations of
them and on hypothesis-generated text, the new parsers must give `==`
objects (in the same order, with the same warnings) or raise the same
exception type with the same message.  The TextGrid, landmark CSV and
config parsers, which have no oracle, are fuzzed for typed errors only.
"""
import collections
import math
import random
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from lamit import corpus, features, lexicon
from lamit.config import (AnalysisConfig, ConfigError, check_config,
                          parse_config_values)
from lamit.corpus import (TranscribedSentence, TranscribedWord,
                          TranscriptionError)
from lamit.features import (FeatureBundle, FeatureInventory, FeatureValue,
                            InventoryError, MajorClass, ParseError,
                            PhonemeId, classify_major)
from lamit.landmarks import (LandmarkError, LandmarkKind, LandmarkSequence,
                             Manner, parse_landmarks_csv)
from lamit.lexicon import LexEntry, Lexicon, LexiconParseError, PhonemeToken
from lamit.textgrid import (AnnotationDocument, Interval, IntervalTier,
                            Point, PointTier, TextGridError, parse_textgrid,
                            serialize_textgrid)


# ------------------------------------------------------------ oracles

def old_load_inventory(text):
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip('\n')
        if not line or line.startswith('#'):
            continue
        cells = line.split('\t')
        if header is None:
            if cells[0] != 'phoneme' or cells[1] != 'arpabet':
                raise ParseError(f'line {lineno}: malformed header')
            header = cells
            continue
        if len(cells) != len(header):
            raise ParseError(
                f'line {lineno}: expected {len(header)} cells, '
                f'got {len(cells)}')
        rows.append((lineno, cells))
    if header is None or not rows:
        raise ParseError('no phoneme rows')

    has_base = header[-1] == 'base'
    feats = header[2:-1] if has_base else header[2:]
    if len(set(feats)) != len(feats):
        dupes = {f for f in feats if feats.count(f) > 1}
        raise ParseError(f'duplicated feature column(s): {sorted(dupes)}')
    valmap = {v.value: v for v in FeatureValue}

    phonemes = []
    bundles = {}
    pending = []
    for lineno, cells in rows:
        ipa, arp = cells[0], cells[1]
        base = cells[-1] if has_base else '.'
        vals = cells[2:-1] if has_base else cells[2:]
        if any(p.ipa == ipa for p in phonemes) or \
                ipa in (g for _, g, _, _ in pending):
            raise InventoryError(
                'line {}: duplicate phoneme {!r}, already on line {} as {}'
                .format(lineno, ipa, *next((n, c[1]) for n, c in rows
                                           if c[0] == ipa)))
        if base != '.':
            if any(c != '.' for c in vals):
                raise ParseError(f"line {lineno}: geminate {ipa!r}: feature "
                                 f"cells must be '.'; it takes the bundle "
                                 f"of {base!r}")
            pending.append((lineno, ipa, arp, base))
            continue
        cells = {}
        for f, c in zip(feats, vals):
            if c not in valmap:
                raise ParseError(f'line {lineno}: bad cell {c!r}')
            if c != '.':
                cells[f] = valmap[c]
        bundle = FeatureBundle(cells)
        try:
            cls = classify_major(bundle)
        except InventoryError as e:
            raise InventoryError(
                f'line {lineno}: phoneme {ipa!r}: {e}') from None
        phonemes.append(PhonemeId(ipa, arp, cls))
        bundles[ipa] = bundle

    for lineno, ipa, arp, base in pending:
        if any(g == base for _, g, _, _ in pending):
            raise InventoryError(f'line {lineno}: geminate {ipa!r}: '
                                 f'base {base!r} is not a singleton')
        if base not in bundles:
            raise InventoryError(
                f'line {lineno}: geminate {ipa!r} references unknown base '
                f'{base!r}')
        basep = next(p for p in phonemes if p.ipa == base)
        phonemes.append(PhonemeId(ipa, arp, basep.major_class,
                                  singleton_base=base))
        bundles[ipa] = bundles[base]

    sing = [p for p in phonemes if not p.geminate]
    for i, a in enumerate(sing):
        for b in sing[i + 1:]:
            if dict(bundles[a.ipa]) == dict(bundles[b.ipa]):
                raise InventoryError(
                    f'non-distinct bundles: {a.arpabet} vs {b.arpabet}')

    return FeatureInventory(phonemes, bundles, feats)


def old_parse_arpabet(tokens, inv):
    out = []
    for pos, tok in enumerate(tokens.split(), 1):
        stressed = tok.endswith('1')
        label = tok[:-1] if stressed else tok
        if label not in inv.by_arpabet:
            raise LexiconParseError(
                f'unknown label {tok}, position {pos}')
        p = inv.by_arpabet[label]
        if stressed and p.major_class is not MajorClass.VOWEL:
            raise LexiconParseError(
                f'stress mark on non-vowel {tok}, position {pos}')
        out.append(PhonemeToken(p, stressed))
    return out


def old_load_lexicon(text, inv):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise LexiconParseError(f'line {lineno}: no phoneme tokens')
        orth, rest = parts[0].upper(), parts[1]
        try:
            phonemes = old_parse_arpabet(rest, inv)
        except LexiconParseError as e:
            raise LexiconParseError(f'{e}, line {lineno}') from None
        stresses = sum(1 for t in phonemes if t.stressed)
        if stresses > 1:
            raise LexiconParseError(
                f'line {lineno}: {stresses} primary stresses in {orth}')
        if orth in entries:
            first = next(n for n, ln in enumerate(text.splitlines(), 1)
                         if ln.strip() and not ln.strip().startswith('#')
                         and ln.split(None, 1)[0].upper() == orth)
            raise LexiconParseError(f'line {lineno}: duplicate entry {orth}, '
                                    f'already on line {first}')
        entries[orth] = LexEntry(orth, tuple(phonemes))
    return Lexicon(entries, inv)


_MULTI = ('tsts', 'dzdz', 'tʃtʃ', 'dʒdʒ', 'ts', 'dz', 'tʃ', 'dʒ')
_VOWELS = 'aeiouɛɔ'


def old_tokenize_ipa(word, inv, offset0):
    letters = word.replace("'", '')
    raw_pos = [i for i, c in enumerate(word) if c != "'"]
    stress_char = None
    if "'" in word:
        stress_char = len(word[:word.rfind("'")].replace("'", ''))
    symbols = []
    starts = []
    i = 0
    while i < len(letters):
        matched = None
        for unit in _MULTI:
            if letters.startswith(unit, i):
                matched = unit
                break
        if matched:
            symbols.append(matched)
            starts.append(i)
            i += len(matched)
        else:
            c = letters[i]
            if symbols and symbols[-1] == c and c not in _VOWELS + 'jw':
                symbols[-1] = c + c
            else:
                symbols.append(c)
                starts.append(i)
            i += 1
    tokens = []
    stress_index = None
    for k, sym in enumerate(symbols):
        if sym not in inv.by_ipa:
            raise TranscriptionError(
                f'unknown symbol {sym!r} at offset '
                f'{offset0 + raw_pos[starts[k]]}')
        p = inv.by_ipa[sym]
        stressed = False
        if stress_char is not None and stress_index is None \
                and starts[k] >= stress_char \
                and p.major_class is MajorClass.VOWEL:
            stressed = True
            stress_index = k
        tokens.append(PhonemeToken(p, stressed))
    return tokens, stress_index


def old_parse_transcription(line, inv, sentence_id=0):
    text = line.strip()
    if '\t' in text:
        head, _, rest = text.partition('\t')
        if head.rstrip('.').isdigit():
            sentence_id = int(head.rstrip('.'))
            text = rest.strip()
    words = []
    events = []
    offset = 0
    for raw in text.split(' '):
        if not raw:
            offset += 1
            continue
        # the records keep no stress index: the stressed token says it
        tokens, _ = old_tokenize_ipa(raw, inv, offset)
        if not tokens:
            offset += len(raw) + 1
            continue
        if tokens[0].phoneme.geminate:
            events.append((len(words), tokens[0].phoneme))
        words.append(TranscribedWord(tuple(tokens)))
        offset += len(raw) + 1
    sent = TranscribedSentence(sentence_id, tuple(words))
    # the records derive the events the old parser listed
    assert sent.doubling_events == tuple(events)
    return sent


def old_parse_corpus(text, inv):
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        try:
            out.append(old_parse_transcription(line, inv))
        except TranscriptionError as e:
            raise TranscriptionError(f'line {lineno}: {e}') from None
    return out


def old_phoneme_frequencies(sentences, inv):
    sentences = list(sentences)
    if not sentences:
        raise TranscriptionError('empty corpus')
    counts = collections.Counter()
    for sent in sentences:
        for word in sent.words:
            for i, tok in enumerate(word.phonemes):
                p = tok.phoneme
                if i == 0 and word.doubled:
                    p = inv.phoneme(p.singleton_base)
                counts[p] += 1
    return corpus.FrequencyTable(dict(counts))


# ------------------------------------------------------------ helpers

def outcome(fn, *args):
    """What a call did: its value and warnings, or its exception."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter('always')
        try:
            value = fn(*args)
        except Exception as e:       # compared, never swallowed
            return ('raised', type(e), str(e))
    return ('returned', value, [str(w.message) for w in caught])


def assert_agree(new, old, typed, *args):
    """new(*args) does what old(*args) did and raises only `typed`.

    The old parsers let two untyped errors out (an `IndexError` on a
    one-cell header, a `ValueError` on a non-decimal digit sentence
    number); where the oracle does that, the new parser must raise its
    typed error instead.
    """
    got, want = outcome(new, *args), outcome(old, *args)
    if got[0] == 'raised':
        assert issubclass(got[1], typed), got
    if want[0] == 'raised' and not issubclass(want[1], typed):
        assert got[0] == 'raised', (got, want)
        return got
    assert got == want
    return got


def assert_tables_agree(sentences, inv):
    got = outcome(corpus.phoneme_frequencies, sentences, inv)
    want = outcome(old_phoneme_frequencies, sentences, inv)
    assert got == want
    if got[0] == 'returned':
        assert list(got[1].counts.items()) == list(want[1].counts.items())
        total = sum(want[1].counts.values())
        assert [got[1].percent(p) for p in got[1].counts] == \
            [100.0 * n / total for n in want[1].counts.values()]


def data_text(name):
    return features._read_data(name)


# ------------------------------------------------------ shipped files

@pytest.mark.parametrize('name', ['italian_features.tsv',
                                  'english_features.tsv'])
def test_shipped_inventories_equal_oracle(name):
    text = data_text(name)
    new, old = features.load_inventory(text), old_load_inventory(text)
    assert new == old
    assert list(new.by_ipa) == list(old.by_ipa)


def test_shipped_lexicon_equals_oracle(italian):
    text = data_text('lamit_lexicon.tsv')
    new = lexicon.load_lexicon(text, italian)
    old = old_load_lexicon(text, italian)
    assert new == old
    assert list(new.entries) == list(old.entries)


def test_shipped_corpus_and_frequencies_equal_oracle(italian):
    text = data_text('lamit_transcriptions.tsv')
    new = corpus.parse_corpus(text, italian)
    assert new == old_parse_corpus(text, italian)
    assert [corpus.parse_transcription(ln, italian)
            for ln in text.splitlines() if ln and not ln.startswith('#')] \
        == new
    assert_tables_agree(new, italian)


def test_shipped_corpus_against_english_inventory(english):
    assert_agree(corpus.parse_corpus, old_parse_corpus, TranscriptionError,
                 data_text('lamit_transcriptions.tsv'), english)


# ----------------------------------------------------- token sharing

def test_lexicon_tokens_shared_within_a_parse_only(italian):
    text = data_text('lamit_lexicon.tsv')
    first = lexicon.load_lexicon(text, italian)
    second = lexicon.load_lexicon(text, italian)
    by_label = {}
    for entry in first.entries.values():
        for tok in entry.phonemes:
            assert by_label.setdefault(tok.label, tok) is tok
    others = {id(t) for e in second.entries.values() for t in e.phonemes}
    assert others.isdisjoint(id(t) for t in by_label.values())


def test_corpus_tokens_shared_within_a_parse_only(italian):
    text = data_text('lamit_transcriptions.tsv')
    first = corpus.parse_corpus(text, italian)
    second = corpus.parse_corpus(text, italian)
    by_key = {}
    for sent in first:
        for word in sent.words:
            for tok in word.phonemes:
                assert by_key.setdefault(
                    (tok.phoneme.ipa, tok.stressed), tok) is tok
    others = {id(t) for s in second for w in s.words for t in w.phonemes}
    assert others.isdisjoint(id(t) for t in by_key.values())
    assert any(stressed for _, stressed in by_key)


# --------------------------------------------------- seeded mutations

def mutate_lines(rng, lines):
    """Drop, duplicate or reorder lines."""
    lines = list(lines)
    kind = rng.choice(['drop', 'duplicate', 'swap', 'shuffle'])
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == 'drop':
        del lines[i]
    elif kind == 'duplicate':
        lines.insert(j, lines[i])
    elif kind == 'swap':
        lines[i], lines[j] = lines[j], lines[i]
    else:
        rng.shuffle(lines)
    return lines


def mutate_inventory(rng, text):
    lines = text.splitlines()
    head = next(k for k, ln in enumerate(lines) if ln.startswith('phoneme'))
    header, rows = lines[:head + 1], lines[head + 1:]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(['lines', 'twins', 'twins', 'cell', 'base',
                           'width', 'major', 'header'])
        if kind == 'lines':
            rows = mutate_lines(rng, rows)
            continue
        cells = [ln.split('\t') for ln in rows]
        singles = [c for c in cells if c[-1] == '.']
        if kind == 'twins':
            # copy whole bundles onto other singletons: several groups
            for _ in range(rng.randint(1, 3)):
                src, dst = rng.choice(singles), rng.choice(singles)
                dst[2:-1] = src[2:-1]
        elif kind == 'cell':
            row = rng.choice(cells)
            row[rng.randrange(2, len(row) - 1)] = rng.choice('x+-±.')
        elif kind == 'base':
            row = rng.choice(cells)
            row[-1] = rng.choice(['zz', '.', rng.choice(cells)[0]])
        elif kind == 'width':
            row = rng.choice(cells)
            del row[rng.randrange(2, len(row))]
        elif kind == 'major':
            row = rng.choice(singles)
            row[2 + rng.randrange(3)] = rng.choice('+-')
        else:
            header = header[:-1] + [rng.choice([
                'phoneme', 'sound\tarpabet', header[-1].replace(
                    '\tvowel', '\tglide', 1)])]
        rows = ['\t'.join(c) for c in cells]
    return '\n'.join(header + rows) + '\n'


def test_inventory_mutations_agree_with_oracle():
    texts = [data_text('italian_features.tsv'),
             data_text('english_features.tsv')]
    rng = random.Random(9)
    seen = collections.Counter()
    for _ in range(300):
        text = mutate_inventory(rng, rng.choice(texts))
        got = assert_agree(features.load_inventory, old_load_inventory,
                           InventoryError, text)
        seen[got[0] if got[0] == 'returned' else got[2].split(':')[0]] += 1
    # the mutations reach the distinctness check and leave some valid
    assert seen['returned'] >= 20
    assert seen['non-distinct bundles'] >= 20


def mutate_lexicon(rng, text, inv):
    lines = text.splitlines()
    labels = sorted(inv.by_arpabet)
    consonants = [p.arpabet for p in inv.phonemes
                  if p.major_class is MajorClass.CONSONANT]
    vowels = [p.arpabet for p in inv.phonemes
              if p.major_class is MajorClass.VOWEL]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(['lines', 'lines', 'unknown', 'consonant',
                           'stress', 'empty', 'label'])
        if kind == 'lines':
            lines = mutate_lines(rng, lines)
            continue
        k = rng.randrange(len(lines))
        orth, _, rest = lines[k].partition('\t')
        toks = rest.split()
        if not toks:
            continue
        at = rng.randrange(len(toks))
        if kind == 'unknown':
            toks[at] = rng.choice(['QQ', 'AA2', 'aa', '1', 'X1'])
        elif kind == 'consonant':
            toks[at] = rng.choice(consonants) + '1'
        elif kind == 'stress':
            toks[at] = rng.choice(vowels) + '1'
        elif kind == 'label':
            toks[at] = rng.choice(labels)
        else:
            toks = []
        lines[k] = orth + rng.choice(['\t', ' ', '  ']) + ' '.join(toks)
    return '\n'.join(lines) + '\n'


def test_lexicon_mutations_agree_with_oracle(italian):
    text = data_text('lamit_lexicon.tsv')
    rng = random.Random(10)
    seen = collections.Counter()
    for _ in range(250):
        got = assert_agree(lexicon.load_lexicon, old_load_lexicon,
                           LexiconParseError,
                           mutate_lexicon(rng, text, italian), italian)
        seen[got[0] if got[0] == 'returned' else got[2].split(' ')[0]] += 1
    assert seen['returned'] >= 20
    assert seen['unknown'] >= 20 and seen['stress'] >= 20


def mutate_corpus(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(['lines', 'stray', 'geminate', 'geminate',
                           'apostrophe', 'space', 'double'])
        if kind == 'lines':
            lines = mutate_lines(rng, lines)
            continue
        k = rng.randrange(len(lines))
        line = lines[k]
        if kind == 'stray':
            at = rng.randrange(len(line) + 1)
            line = line[:at] + rng.choice('xqQ!?0²ʔ') + line[at:]
        elif kind == 'geminate':
            # stress marks inside geminates, affricates included
            for unit in ('tsts', 'dʒdʒ', 'tʃtʃ', 'tt', 'll', 'ss', 'mm',
                         'kk', 'pp'):
                if unit in line:
                    half = len(unit) // 2
                    line = line.replace(unit, unit[:half] + "'" +
                                        unit[half:], rng.randint(1, 2))
        elif kind == 'apostrophe':
            at = rng.randrange(len(line) + 1)
            line = line[:at] + "'" * rng.randint(1, 2) + line[at:]
        elif kind == 'space':
            at = rng.randrange(len(line) + 1)
            line = line[:at] + rng.choice([' ', '  ', '\t']) + line[at:]
        else:
            # word-initial doubling: double the first letter of a word
            words = line.split(' ')
            w = rng.randrange(len(words))
            words[w] = words[w][:1] + words[w]
            line = ' '.join(words)
        lines[k] = line
    return '\n'.join(lines) + '\n'


def test_corpus_mutations_agree_with_oracle(italian):
    lines = data_text('lamit_transcriptions.tsv').splitlines()
    rng = random.Random(11)
    seen = collections.Counter()
    for _ in range(250):
        # a quarter of the corpus per case keeps the oracle's cost down
        text = '\n'.join(rng.sample(lines, 25))
        got = assert_agree(corpus.parse_corpus, old_parse_corpus,
                           TranscriptionError, mutate_corpus(rng, text),
                           italian)
        seen[got[0]] += 1
        if got[0] == 'returned':
            assert_tables_agree(got[1], italian)
    assert seen['returned'] >= 50 and seen['raised'] >= 50


# ------------------------------------------------------ hypothesis fuzz

ITALIAN = features.load_italian()
FUZZ_FEATURES = ('vowel', 'glide', 'cons', 'son', 'nasal')
MAJOR_CELLS = {'vowel': '+\t-\t-', 'glide': '-\t+\t-', 'cons': '-\t-\t+'}


@st.composite
def inventory_texts(draw):
    """Small inventories, mostly well formed, so that valid ones, twin
    bundles and each kind of malformed row all occur."""
    full = 'phoneme\tarpabet\t' + '\t'.join(FUZZ_FEATURES)
    header = draw(st.sampled_from([full + '\tbase'] * 6 + [
        full, 'phoneme\tarpabet\tvowel\tvowel\tbase', 'phoneme',
        'phoneme\tipa', 'phoneme\tarpabet\tbase']))
    width = len(header.split('\t'))
    lines = [draw(st.sampled_from(['# language: fuzz', '# note', '']))]
    lines.append(header)
    for _ in range(draw(st.integers(0, 6))):
        ipa = draw(st.sampled_from(['a', 'i', 'u', 'p', 't', 'k', 'pp',
                                    'tt', '']))
        cells = [ipa, ipa.upper() or 'X']
        if width >= 5 and draw(st.integers(0, 4)):
            cells += draw(st.sampled_from(sorted(MAJOR_CELLS.values()))) \
                .split('\t')
        while len(cells) < width - 1:
            cells.append(draw(st.sampled_from(['+', '-', '.'] * 5 +
                                              ['±', 'x'])))
        if width > 2:
            cells.append(draw(st.sampled_from(['.'] * 8 + [
                'p', 't', 'a', 'pp', 'zz', '+'])))
        cells = cells[:width + draw(st.sampled_from([0] * 10 + [-1, 1]))]
        lines.append('\t'.join(cells))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(['', '# comment'])))
    return '\n'.join(lines)


@settings(max_examples=300)
@given(inventory_texts())
def test_fuzz_inventory(text):
    got = assert_agree(features.load_inventory, old_load_inventory,
                       InventoryError, text)
    if got[0] == 'returned':
        assert isinstance(got[1], FeatureInventory)


@st.composite
def lexicon_texts(draw):
    labels = sorted(ITALIAN.by_arpabet)
    token = st.sampled_from(labels + [lb + '1' for lb in labels] +
                            ['QQ', '1', 'AA2', 'aa', 'M11'])
    entry = st.builds(
        lambda orth, sep, toks: orth + sep + ' '.join(toks),
        st.sampled_from(['casa', 'MAMMA', 'è', 'a-b', 'X', 'ad']),
        st.sampled_from(['\t', ' ', ' \t ']),
        st.lists(token, max_size=6))
    other = st.sampled_from(['', '# comment', '   ', 'LONELY', '\t'])
    lines = draw(st.lists(st.one_of(entry, entry, other), max_size=8))
    return '\n'.join(lines)


@settings(max_examples=300)
@given(lexicon_texts())
def test_fuzz_lexicon(text):
    got = assert_agree(lexicon.load_lexicon, old_load_lexicon,
                       LexiconParseError, text, ITALIAN)
    if got[0] == 'returned':
        assert isinstance(got[1], Lexicon)


IPA_PIECES = ['a', 'e', 'i', 'o', 'u', 'ɛ', 'ɔ', 'j', 'w', 'p', 'b', 't',
              'd', 'k', 'g', 'f', 'v', 's', 'z', 'ʃ', 'm', 'n', 'ɲ', 'l',
              'ʎ', 'r', 'ts', 'dz', 'tʃ', 'dʒ', "'", "'", ' ', ' ', '\t',
              '1', '.', 'x', '²', 'ʒ', '\x0b', '\n']
transcription_lines = st.lists(st.sampled_from(IPA_PIECES),
                               max_size=30).map(''.join)


@settings(max_examples=300)
@given(transcription_lines, st.integers(0, 3))
@example("'tstststsa dʒdʒdʒ", 0)           # runs of geminate affricates
@example("a'ppa\tts't ll'l", 1)
def test_fuzz_transcription(line, sentence_id):
    got = assert_agree(corpus.parse_transcription, old_parse_transcription,
                       TranscriptionError, line, ITALIAN, sentence_id)
    if got[0] == 'returned':
        assert isinstance(got[1], TranscribedSentence)


@settings(max_examples=150)
@given(st.lists(st.one_of(transcription_lines,
                          st.sampled_from(['', '# c', "36.\t'mamma"])),
                max_size=5).map('\n'.join))
def test_fuzz_corpus_and_frequencies(text):
    got = assert_agree(corpus.parse_corpus, old_parse_corpus,
                       TranscriptionError, text, ITALIAN)
    if got[0] == 'returned':
        assert_tables_agree(got[1], ITALIAN)


@pytest.mark.parametrize('parse, old, text, typed', [
    (features.load_inventory, old_load_inventory, 'phoneme\na\tA\t+',
     InventoryError),
    (corpus.parse_corpus, old_parse_corpus, "²\t'mamma", TranscriptionError),
])
def test_untyped_oracle_errors_are_typed_now(italian, parse, old, text,
                                            typed):
    args = (text,) if parse is features.load_inventory else (text, italian)
    assert not issubclass(outcome(old, *args)[1], typed)
    with pytest.raises(typed):
        parse(*args)


# -------------------------------------------- typed errors, nothing else
#
# The TextGrid, landmark CSV and config parsers replaced no older parser,
# so they have no oracle: on generated text each must return a valid
# object or raise its module's typed error.

def returned_or_typed(fn, typed, *args):
    """fn(*args), or None when it raised `typed`; any other exception
    fails the test."""
    try:
        return fn(*args)
    except typed:
        return None


TG_VALUES = ['0', '1', '2', '0.5', '1.7', '-1', '+3', '5.', '.25', '2E1',
             '1e300', '1e400', '-1e400', 'inf', 'nan', 'oops', '"1"',
             '"IntervalTier"', '"TextTier"', '"Other"', 'x y', '']


@st.composite
def textgrid_texts(draw):
    """Serialized documents with a few lines changed, dropped or
    repeated, so that valid ones and each kind of fault occur."""
    tiers = []
    for k in range(draw(st.integers(0, 3))):
        times = sorted(draw(st.sets(st.integers(1, 40), max_size=5)))
        if draw(st.booleans()):
            edges = [0] + times
            tiers.append(IntervalTier(f'T{k}', [
                Interval(a / 10, b / 10, draw(st.sampled_from(
                    ['', 'a', 'x "y"'])))
                for a, b in zip(edges, edges[1:])]))
        else:
            tiers.append(PointTier(f'P{k}', [Point(t / 10, 'V')
                                             for t in times]))
    duration = draw(st.sampled_from([4.0, 4.5, 100.0]))
    lines = serialize_textgrid(AnnotationDocument(duration, tiers)) \
        .split('\n')
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(['value', 'value', 'drop', 'repeat',
                                   'insert']))
        if op == 'value' and ' = ' in lines[i]:
            key = lines[i].split(' = ', 1)[0]
            lines[i] = f'{key} = {draw(st.sampled_from(TG_VALUES))}'
        elif op == 'drop' and len(lines) > 1:
            del lines[i]
        elif op == 'repeat':
            lines.insert(i, lines[i])
        elif op == 'insert':
            lines.insert(i, draw(st.text('="[]<> \t0.5aé', max_size=6)))
    return '\n'.join(lines)


def assert_valid_document(doc):
    assert isinstance(doc, AnnotationDocument)
    assert 0 < doc.duration < math.inf
    for tier in doc.tiers:
        assert isinstance(tier, (IntervalTier, PointTier))
        assert tier.t_end <= doc.duration
    # what lexi and landmarks write from it can be read back
    again = parse_textgrid(serialize_textgrid(doc))
    assert again.duration == doc.duration
    assert [(t.name, t.items) for t in again.tiers] == \
        [(t.name, t.items) for t in doc.tiers]


def with_value(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


ONE_WORD = serialize_textgrid(AnnotationDocument(1.0, [IntervalTier(
    'Word', [Interval(0.0, 1.0, 'MAMMA')])]))


@settings(max_examples=300)
@given(textgrid_texts())
@example(with_value(ONE_WORD, 'size = 1\n', 'size = 1e400\n'))
@example(with_value(ONE_WORD, 'size = 1\n', 'size = 1.7\n'))
@example(with_value(ONE_WORD, 'xmax = 1\n', 'xmax = 1e400\n'))
def test_fuzz_textgrid_text(text):
    doc = returned_or_typed(parse_textgrid, TextGridError, text)
    if doc is not None:
        assert_valid_document(doc)


@settings(max_examples=200)
@given(textgrid_texts(),
       st.sampled_from(['utf-8', 'utf-8-sig', 'utf-16', 'utf-16-le',
                        'latin-1']),
       st.binary(max_size=3), st.integers(0, 2000))
@example(with_value(ONE_WORD, 'size = 1\n', 'size = 1e400\n'),
         'utf-16', b'', 0)
def test_fuzz_textgrid_bytes(text, encoding, junk, at):
    data = text.encode(encoding, errors='replace')
    data = data[:at] + junk + data[at:]
    doc = returned_or_typed(parse_textgrid, TextGridError, data)
    if doc is not None:
        assert_valid_document(doc)


CSV_HEADER = 'time_s,kind,manner,strength_dB'
CONSONANT = (LandmarkKind.CLOSURE, LandmarkKind.RELEASE)


@st.composite
def landmark_csv_texts(draw):
    """Rows of increasing times, most of them well formed, under the
    header, a wrong header or none."""
    lines = []
    header = draw(st.sampled_from([CSV_HEADER] * 6 + [
        ' ' + CSV_HEADER + ' ', 'time,kind', '', None]))
    if header is not None:
        lines.append(header)
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(list(LandmarkKind)))
        manner = draw(st.sampled_from(list(Manner))).value \
            if kind in CONSONANT else ''
        cells = [f'{0.05 * (i + 1):.6f}', kind.value, manner, '10.00']
        if draw(st.integers(0, 4)) == 0:
            cells[draw(st.integers(0, 3))] = draw(st.sampled_from([
                '0.01', '-1', '1e400', 'nan', 'inf', 'x', '', 'Bogus',
                'Vowel', 'sonorant', 'nasal']))
        lines.append(','.join(cells))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(['', ' ', 'a,b', '1,2,3,4,5'])))
    return '\n'.join(lines)


@settings(max_examples=300)
@given(landmark_csv_texts())
@example('0.100000,Vowel,,10.00')                 # no header line
def test_fuzz_landmark_csv(text):
    seq = returned_or_typed(parse_landmarks_csv, LandmarkError, text)
    if seq is None:
        return
    assert isinstance(seq, LandmarkSequence)
    times = [lm.time for lm in seq.items]
    assert all(math.isfinite(t) for t in times)
    assert times == sorted(set(times))
    assert all((lm.kind in CONSONANT) == (lm.manner is not None)
               for lm in seq.items)
    # every row but the header is a landmark
    rows = text.splitlines()
    if rows and rows[0].strip() == CSV_HEADER:
        rows = rows[1:]
    assert len(seq.items) == sum(1 for r in rows if r.strip())


def test_landmark_csv_header_is_line_1():
    assert parse_landmarks_csv('').items == ()
    assert parse_landmarks_csv(CSV_HEADER + '\n').items == ()
    with pytest.raises(LandmarkError, match='^line 1: '):
        parse_landmarks_csv('0.100000,Vowel,,10.00\n')


CONFIG_KEYS = list(AnalysisConfig._fields)


@st.composite
def config_texts(draw):
    """key = value lines, most of them well formed."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        key = draw(st.sampled_from(CONFIG_KEYS))
        value = '100, 300' if key.endswith('_band') else '0.5'
        if draw(st.integers(0, 3)) == 0:
            value = draw(st.sampled_from([
                '0', '-2', '1e400', 'nan', 'inf', '100 200', '1 2 3', 'x',
                '', '1_0', '0.5 # note', '0.5=1']))
        line = f'{key} = {value}'
        if draw(st.integers(0, 5)) == 0:
            line = draw(st.sampled_from([
                f'{key} {value}', f' {key}={value} ', f'bogus = {value}',
                f'# {line}', '', draw(st.text('=#, \t0.5a_é', max_size=8))]))
        lines.append(line)
    return '\n'.join(lines)


@settings(max_examples=300)
@given(config_texts())
def test_fuzz_config_values(text):
    values = returned_or_typed(parse_config_values, ConfigError, text)
    if values is None:
        return
    assert set(values) <= set(CONFIG_KEYS)
    for key, value in values.items():
        numbers = value if isinstance(value, tuple) else (value,)
        assert all(isinstance(x, float) and math.isfinite(x)
                   for x in numbers)
        assert len(numbers) == (2 if key.endswith('_band') else 1)
    cfg = returned_or_typed(check_config, ConfigError,
                            AnalysisConfig()._replace(**values))
    assert cfg is None or isinstance(cfg, AnalysisConfig)
