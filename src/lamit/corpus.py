"""LaMIT corpus transcriptions, syntactic doubling, phoneme statistics."""
from __future__ import annotations

import collections
import re
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from .features import Checked, FeatureInventory, MajorClass, PhonemeId
from .lexicon import Lexicon, PhonemeToken


class TranscriptionError(ValueError):
    pass


class _TranscribedWord(NamedTuple):
    phonemes: tuple[PhonemeToken, ...]


class TranscribedWord(Checked, _TranscribedWord):
    __slots__ = ()

    def _check(self):
        if not self.phonemes:
            raise TranscriptionError('a transcribed word has no phonemes')

    @property
    def doubled(self) -> bool:
        """Whether the word starts with syntactic gemination."""
        return self.phonemes[0].phoneme.geminate


class TranscribedSentence(NamedTuple):
    id: int
    words: tuple[TranscribedWord, ...]

    @property
    def doubling_events(self) -> tuple[tuple[int, PhonemeId], ...]:
        """(word index, geminate phoneme) for each word-initial doubling."""
        return tuple((i, w.phonemes[0].phoneme)
                     for i, w in enumerate(self.words) if w.doubled)


def _alphabet(inv: FeatureInventory):
    """A pattern matching one transcription symbol of `inv`, and the
    symbols whose doubling is two phonemes: its vowels and glides; any
    other doubled symbol is its geminate.  The pattern tries its
    multi-character singletons, longest first, then any one character."""
    multi = sorted((p.ipa for p in inv.singletons() if len(p.ipa) > 1),
                   key=len, reverse=True)
    return (re.compile('|'.join([*map(re.escape, multi), '.']), re.S),
            {p.ipa for p in inv.phonemes
             if p.major_class is not MajorClass.CONSONANT})


def _tokenize_ipa(word: str, inv: FeatureInventory, offset0: int,
                  tokens: dict[str, PhonemeToken], alphabet):
    """IPA symbols -> phoneme list; apostrophes mark stress (last wins).

    Stress marks are transparent to symbol grouping, so geminates split
    by a mark ("bik'kjere", "ts'ts") still form one geminate phoneme.
    `tokens` holds the tokens made so far, by symbol (stressed ones with
    a trailing apostrophe); equal symbols get the same token.
    `alphabet` is `_alphabet(inv)`.
    """
    unit_pattern, undoubled = alphabet
    letters = word.replace("'", '')
    stress_char = None
    if "'" in word:
        stress_char = len(word[:word.rfind("'")].replace("'", ''))
    symbols: list[str] = []
    starts: list[int] = []
    i = 0
    for unit in unit_pattern.findall(letters):
        if symbols and symbols[-1] == unit and unit not in undoubled:
            symbols[-1] = unit + unit     # doubled consonant = geminate
        else:
            symbols.append(unit)
            starts.append(i)
        i += len(unit)
    out = []
    for k, sym in enumerate(symbols):
        tok = tokens.get(sym)
        if tok is None:
            if sym not in inv.by_ipa:
                raw_pos = [j for j, c in enumerate(word) if c != "'"]
                raise TranscriptionError(
                    f'unknown symbol {sym!r} at offset '
                    f'{offset0 + raw_pos[starts[k]]}')
            tok = tokens[sym] = PhonemeToken(inv.by_ipa[sym])
        if stress_char is not None and starts[k] >= stress_char \
                and tok.phoneme.major_class is MajorClass.VOWEL:
            stress_char = None      # one stressed vowel per word
            key = sym + "'"
            if key not in tokens:
                tokens[key] = PhonemeToken(tok.phoneme, True)
            tok = tokens[key]
        out.append(tok)
    return out


def parse_transcription(line: str, inv: FeatureInventory,
                        sentence_id: int = 0) -> TranscribedSentence:
    """One corpus transcription line -> TranscribedSentence.

    Word-initial geminates are syntactic doubling: they stay attached to
    the word (as the geminate phoneme); see `doubling_events`.
    """
    return _parse_line(line, inv, sentence_id, {}, _alphabet(inv))


def _parse_line(line: str, inv: FeatureInventory, sentence_id: int,
                tokens: dict, alphabet) -> TranscribedSentence:
    """`parse_transcription`, sharing `tokens` (see `_tokenize_ipa`)."""
    text = line.strip()
    if '\t' in text:
        head, _, rest = text.partition('\t')
        if head.rstrip('.').isdecimal():     # the digits int() reads
            sentence_id = int(head.rstrip('.'))
            text = rest.strip()
    words = []
    offset = 0
    for raw in text.split(' '):
        if raw:
            phonemes = _tokenize_ipa(raw, inv, offset, tokens, alphabet)
            if phonemes:
                words.append(TranscribedWord(tuple(phonemes)))
        offset += len(raw) + 1
    return TranscribedSentence(sentence_id, tuple(words))


def detect_syntactic_doubling(sent: TranscribedSentence, lex: Lexicon):
    """(trigger word index, target word index, geminate) per doubling.

    The trigger is the preceding word, so a sentence cannot start with
    a doubling, and each target must resolve to a lexicon entry whose
    citation form starts with the singleton; either failure raises.
    """
    out = []
    for widx, gem in sent.doubling_events:
        if widx == 0:
            raise TranscriptionError(
                'doubling at word 0 has no preceding trigger word')
        rest = sent.words[widx].phonemes[1:]
        if (gem.singleton_base, *(t.phoneme.ipa for t in rest)) \
                not in lex.by_ipa_sequence:
            raise TranscriptionError(
                f'doubling target at word {widx} has no singleton-initial '
                'lexicon entry')
        out.append((widx - 1, widx, gem))
    return out


class FrequencyTable(NamedTuple):
    counts: Mapping[PhonemeId, int]     # read-only

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def percent(self, phoneme: PhonemeId) -> float:
        n = self.counts.get(phoneme, 0)
        return 100.0 * n / self.total if n else 0.0

    def rows(self) -> list[tuple[PhonemeId, int]]:
        """(phoneme, count) by descending count, ties by ARPAbet."""
        return sorted(self.counts.items(),
                      key=lambda kv: (-kv[1], kv[0].arpabet))


def phoneme_frequencies(sentences, inv: FeatureInventory) -> FrequencyTable:
    """Count every phoneme token once; lexical geminates count as one
    geminate token, and word-initial syntactic doubling counts as the
    citation-form singleton.  The sentences are parsed against `inv`:
    the counts are keyed by its phonemes.
    """
    sentences = list(sentences)
    if not sentences:
        raise TranscriptionError('empty corpus')
    # count IPA symbols, which hash cheaply, in the order first seen
    ipas = []
    for sent in sentences:
        for word in sent.words:
            phonemes = word.phonemes
            base = phonemes[0].phoneme.singleton_base
            if base is not None:        # word-initial doubling
                ipas.append(base)
                phonemes = phonemes[1:]
            ipas += [t.phoneme.ipa for t in phonemes]
    return FrequencyTable(MappingProxyType(
        {inv.by_ipa[ipa]: n for ipa, n in collections.Counter(ipas).items()}))


def frequency_csv(table: FrequencyTable) -> str:
    """CSV 'phoneme,arpabet,count,percent', descending count."""
    lines = ['phoneme,arpabet,count,percent']
    for p, n in table.rows():
        lines.append(f'{p.ipa},{p.arpabet},{n},{table.percent(p):.2f}')
    return '\n'.join(lines) + '\n'


def parse_corpus(text: str, inv: FeatureInventory) -> list[TranscribedSentence]:
    """The sentences of a transcription file; equal tokens are shared
    across its lines."""
    out = []
    tokens: dict[str, PhonemeToken] = {}
    alphabet = _alphabet(inv)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        try:
            out.append(_parse_line(line, inv, 0, tokens, alphabet))
        except TranscriptionError as e:
            raise TranscriptionError(f'line {lineno}: {e}') from None
    return out
