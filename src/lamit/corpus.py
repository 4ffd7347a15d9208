"""LaMIT corpus transcriptions, syntactic doubling, phoneme statistics."""
from __future__ import annotations

import collections
from dataclasses import dataclass
from importlib import resources

from .features import FeatureInventory, MajorClass, PhonemeId
from .lexicon import Lexicon, PhonemeToken, singleton_of


class TranscriptionError(ValueError):
    pass


# longest match first so geminate affricates win over their halves
_MULTI = ('tsts', 'dzdz', 'tʃtʃ', 'dʒdʒ', 'ts', 'dz', 'tʃ', 'dʒ')
_VOWELS = 'aeiouɛɔ'


@dataclass(frozen=True)
class TranscribedWord:
    phonemes: tuple[PhonemeToken, ...]
    stress_position: int | None = None
    doubled: bool = False           # word-initial syntactic gemination

    def ipa(self) -> str:
        return ''.join(t.phoneme.ipa for t in self.phonemes)


@dataclass(frozen=True)
class TranscribedSentence:
    id: int
    words: tuple[TranscribedWord, ...]
    # (word index, geminate phoneme) for each word-initial doubling
    doubling_events: tuple[tuple[int, PhonemeId], ...] = ()

    def phoneme_string(self) -> str:
        return ''.join(w.ipa() for w in self.words)


def _tokenize_ipa(word: str, inv: FeatureInventory, offset0: int):
    """IPA symbols -> phoneme list; apostrophes mark stress (last wins).

    Stress marks are transparent to symbol grouping, so geminates split
    by a mark ("bik'kjere", "ts'ts") still form one geminate phoneme.
    """
    letters = word.replace("'", '')
    raw_pos = [i for i, c in enumerate(word) if c != "'"]
    stress_char = None
    if "'" in word:
        stress_char = len(word[:word.rfind("'")].replace("'", ''))
    symbols: list[str] = []
    starts: list[int] = []
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
                symbols[-1] = c + c     # doubled letter = geminate
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


def parse_transcription(line: str, inv: FeatureInventory,
                        sentence_id: int = 0) -> TranscribedSentence:
    """One corpus transcription line -> TranscribedSentence.

    Word-initial geminates are syntactic doubling: they stay attached to
    the word (as the geminate phoneme) and are recorded as events.
    """
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
        tokens, stress = _tokenize_ipa(raw, inv, offset)
        if not tokens:
            offset += len(raw) + 1
            continue
        doubled = tokens[0].phoneme.geminate
        word = TranscribedWord(tuple(tokens), stress, doubled)
        if doubled:
            events.append((len(words), tokens[0].phoneme))
        words.append(word)
        offset += len(raw) + 1
    return TranscribedSentence(sentence_id, tuple(words), tuple(events))


def detect_syntactic_doubling(sent: TranscribedSentence, lex: Lexicon | None = None):
    """(trigger word index, target word index, geminate) per doubling.

    The trigger is the preceding word.  When a lexicon is given, each
    target must resolve to an entry whose citation form starts with the
    singleton; unresolvable targets raise.
    """
    out = []
    for widx, gem in sent.doubling_events:
        if lex is not None and _citation_entry(sent.words[widx], lex) is None:
            raise TranscriptionError(
                f'doubling target at word {widx} has no singleton-initial '
                'lexicon entry')
        out.append((widx - 1, widx, gem))
    return out


def _citation_ipa(word: TranscribedWord) -> tuple[str, ...]:
    """IPA symbols of the word with initial doubling stripped."""
    out = []
    for i, t in enumerate(word.phonemes):
        if i == 0 and word.doubled:
            out.append(t.phoneme.singleton_base)
        else:
            out.append(t.phoneme.ipa)
    return tuple(out)


def _citation_entry(word: TranscribedWord, lex: Lexicon):
    """Lexicon entry whose phonemes match the doubling-stripped word."""
    return lex.by_ipa_sequence.get(_citation_ipa(word))


@dataclass
class FrequencyTable:
    counts: dict[PhonemeId, int]
    total: int
    percentages: dict[PhonemeId, float]

    def percent(self, phoneme: PhonemeId) -> float:
        return self.percentages.get(phoneme, 0.0)

    def rows(self) -> list[tuple[PhonemeId, int]]:
        """(phoneme, count) by descending count, ties by ARPAbet."""
        return sorted(self.counts.items(),
                      key=lambda kv: (-kv[1], kv[0].arpabet))


def phoneme_frequencies(sentences, inv: FeatureInventory,
                        doubling: str = 'singleton') -> FrequencyTable:
    """Count every phoneme token once; lexical geminates count as one
    geminate token.  Word-initial syntactic doubling counts as the
    citation-form singleton by default (`doubling='geminate'` counts the
    corpus exactly as transcribed instead).
    """
    sentences = list(sentences)
    if not sentences:
        raise TranscriptionError('empty corpus')
    counts: collections.Counter = collections.Counter()
    for sent in sentences:
        for word in sent.words:
            for i, tok in enumerate(word.phonemes):
                p = tok.phoneme
                if i == 0 and word.doubled and doubling == 'singleton':
                    p = singleton_of(inv, p)
                counts[p] += 1
    total = sum(counts.values())
    pct = {p: 100.0 * n / total for p, n in counts.items()}
    return FrequencyTable(dict(counts), total, pct)


def word_frequencies(sentences, lex: Lexicon) -> dict[str, int]:
    """Occurrences of each lexicon entry across the corpus (doubling
    stripped); words with no matching entry are skipped."""
    out: collections.Counter = collections.Counter()
    for sent in sentences:
        for word in sent.words:
            entry = _citation_entry(word, lex)
            if entry is not None:
                out[entry.orthography] += 1
    return dict(out)


def frequency_csv(table: FrequencyTable) -> str:
    """CSV 'phoneme,arpabet,count,percent', descending count."""
    lines = ['phoneme,arpabet,count,percent']
    for p, n in table.rows():
        lines.append(f'{p.ipa},{p.arpabet},{n},{table.percentages[p]:.2f}')
    return '\n'.join(lines) + '\n'


def load_lamit_corpus(inv: FeatureInventory) -> list[TranscribedSentence]:
    text = (resources.files('lamit') / 'data' / 'lamit_transcriptions.tsv') \
        .read_text('utf-8')
    return parse_corpus(text, inv)


def parse_corpus(text: str, inv: FeatureInventory) -> list[TranscribedSentence]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        try:
            out.append(parse_transcription(line, inv))
        except TranscriptionError as e:
            raise TranscriptionError(f'line {lineno}: {e}') from None
    return out
