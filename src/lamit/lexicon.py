"""The LaMIT lexicon: word -> stressed ARPAbet phoneme sequence."""
from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from .features import (FeatureBundle, FeatureInventory, Frozen,
                       LookupError_, MajorClass, PhonemeId, _read_data,
                       features_of)

if TYPE_CHECKING:       # numpy is imported only where the arrays are built
    import numpy as np


class LexiconParseError(ValueError):
    pass


class PhonemeToken(NamedTuple):
    phoneme: PhonemeId
    stressed: bool = False

    @property
    def label(self) -> str:
        return self.phoneme.arpabet + ('1' if self.stressed else '')


class LexEntry(NamedTuple):
    orthography: str
    phonemes: tuple[PhonemeToken, ...]

    def labels(self) -> list[str]:
        return [t.label for t in self.phonemes]


class PhonemeIndex(NamedTuple):
    """A lexicon as read-only arrays, one row per entry in sorted() order
    of orthography, so that ties rank by orthography."""
    orthographies: tuple[str, ...]
    # the inventory's distinct bundles, each once, in order of first use
    # in `inventory.phonemes`; a geminate takes its singleton's
    bundles: tuple[FeatureBundle, ...]
    # (entries, longest entry): each phoneme's column in `bundles`,
    # padded past the entry's end with len(bundles); column-major, so
    # each column is contiguous
    index: np.ndarray
    lengths: np.ndarray       # phonemes per entry


class Lexicon(Frozen):
    """Immutable: the entries sit behind a read-only mapping proxy."""
    _fields = ('entries', 'inventory')
    entries: Mapping[str, LexEntry]
    inventory: FeatureInventory

    def __init__(self, entries: Mapping[str, LexEntry],
                 inventory: FeatureInventory):
        self._bind(entries=MappingProxyType(dict(entries)),
                   inventory=inventory)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, orthography: str):
        return orthography.upper() in self.entries

    def entry(self, orthography: str) -> LexEntry:
        key = orthography.upper()
        if key not in self.entries:
            raise LookupError_(f'unknown word {orthography!r}')
        return self.entries[key]

    @cached_property
    def phoneme_index(self) -> PhonemeIndex:
        """The entries as arrays for scoring all of them at once; see
        `PhonemeIndex`.  Read-only, built on first use."""
        import numpy as np
        inv = self.inventory
        place: dict[str, int] = {}      # singleton ipa -> its column
        column = {p.ipa: place.setdefault(p.singleton_base or p.ipa,
                                          len(place))
                  for p in inv.phonemes}
        orths = tuple(sorted(self.entries))
        lengths = np.array([len(self.entries[o].phonemes) for o in orths],
                           dtype=np.intp)
        index = np.full((len(orths), int(lengths.max(initial=0))),
                        len(place), dtype=np.intp, order='F')
        # a boolean mask assigns in row-major order: entry by entry
        index[np.arange(index.shape[1]) < lengths[:, None]] = [
            column[t.phoneme.ipa]
            for o in orths for t in self.entries[o].phonemes]
        for a in (index, lengths):
            a.flags.writeable = False
        return PhonemeIndex(orths, tuple(inv.bundles[ipa] for ipa in place),
                            index, lengths)

    @cached_property
    def by_ipa_sequence(self) -> Mapping[tuple[str, ...], LexEntry]:
        """Entries by their phonemes' IPA symbols; of homophones, the
        first entry.  Built on first use."""
        idx: dict[tuple[str, ...], LexEntry] = {}
        for entry in self.entries.values():
            idx.setdefault(tuple(t.phoneme.ipa for t in entry.phonemes),
                           entry)
        return MappingProxyType(idx)


def parse_label(tok: str, inv: FeatureInventory) -> PhonemeToken:
    """One ARPAbet label of `inv`, with a '1' suffix (primary stress)
    only on a vowel."""
    stressed = tok.endswith('1')
    label = tok[:-1] if stressed else tok
    if label not in inv.by_arpabet:
        raise LexiconParseError(f'unknown label {tok}')
    p = inv.by_arpabet[label]
    if stressed and p.major_class is not MajorClass.VOWEL:
        raise LexiconParseError(f'stress mark on non-vowel {tok}')
    return PhonemeToken(p, stressed)


def load_lexicon(text: str, inv: FeatureInventory) -> Lexicon:
    """One entry per line: ORTHOGRAPHY<TAB or spaces>ARPABET TOKENS,
    whitespace-separated ARPAbet labels with a '1' suffix for primary
    stress.  An orthography is on one line only, and holds no comma or
    double quote, since `matches.csv` writes it unquoted.

    Each distinct label is checked and made into a token once; its
    entries share that token.
    """
    entries: dict[str, LexEntry] = {}
    lines: dict[str, int] = {}      # orthography -> its line
    tokens: dict[str, PhonemeToken] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise LexiconParseError(f'line {lineno}: no phoneme tokens')
        orth = parts[0].upper()
        if ',' in orth or '"' in orth:
            raise LexiconParseError(f'line {lineno}: comma or double quote '
                                    f'in orthography {parts[0]!r}')
        phonemes = []
        for pos, tok in enumerate(parts[1].split(), 1):
            t = tokens.get(tok)
            if t is None:
                try:
                    t = tokens[tok] = parse_label(tok, inv)
                except LexiconParseError as e:
                    raise LexiconParseError(
                        f'{e}, position {pos}, line {lineno}') from None
            phonemes.append(t)
        stresses = sum(t.stressed for t in phonemes)
        if stresses > 1:
            raise LexiconParseError(
                f'line {lineno}: {stresses} primary stresses in {orth}')
        if orth in lines:
            raise LexiconParseError(f'line {lineno}: duplicate entry {orth}, '
                                    f'already on line {lines[orth]}')
        lines[orth] = lineno
        entries[orth] = LexEntry(orth, tuple(phonemes))
    return Lexicon(entries, inv)


def serialize_lexicon(lex: Lexicon) -> str:
    lines = [f'{e.orthography}\t' + ' '.join(e.labels())
             for e in sorted(lex.entries.values(),
                             key=lambda e: e.orthography)]
    return '\n'.join(lines) + '\n'


def expand_word(lex: Lexicon, orthography: str) -> list[FeatureBundle]:
    """Feature-bundle sequence for a lexical entry, one bundle per token."""
    entry = lex.entry(orthography)
    return [features_of(lex.inventory, t.phoneme) for t in entry.phonemes]


def load_lamit_lexicon(inv: FeatureInventory) -> Lexicon:
    return load_lexicon(_read_data('lamit_lexicon.tsv'), inv)
