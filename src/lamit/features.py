"""Distinctive-feature inventories and queries over them."""
from __future__ import annotations

import enum
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple


class FeatureValue(enum.Enum):
    PLUS = '+'
    MINUS = '-'
    PLUSMINUS = '±'
    UNSPECIFIED = '.'


PLUS = FeatureValue.PLUS
MINUS = FeatureValue.MINUS
PLUSMINUS = FeatureValue.PLUSMINUS
UNSPECIFIED = FeatureValue.UNSPECIFIED

# articulator-free features carry no articulator; everything else is bound
ARTICULATOR_FREE = ('vowel', 'glide', 'cons', 'cont', 'son', 'strid')

ARTICULATOR_GROUP = {
    'lips': 'oral-cavity', 'blade': 'oral-cavity', 'body': 'oral-cavity',
    'round': 'oral-cavity', 'ant': 'oral-cavity', 'dist': 'oral-cavity',
    'lat': 'oral-cavity', 'rhot': 'oral-cavity', 'high': 'oral-cavity',
    'low': 'oral-cavity', 'back': 'oral-cavity',
    'atr': 'pharyngeal-laryngeal', 'ctr': 'pharyngeal-laryngeal',
    'spread': 'pharyngeal-laryngeal', 'constr': 'pharyngeal-laryngeal',
    'nasal': 'soft-palate',
    'stiff': 'vocal-folds', 'slack': 'vocal-folds',
}


class FeatureName(NamedTuple):
    name: str

    @property
    def kind(self) -> str:
        return ('articulator-free' if self.name in ARTICULATOR_FREE
                else 'articulator-bound')

    @property
    def articulator_group(self) -> str:
        return ARTICULATOR_GROUP.get(self.name, 'none')


class MajorClass(enum.Enum):
    VOWEL = 'vowel'
    GLIDE = 'glide'
    CONSONANT = 'consonant'


class PhonemeId(NamedTuple):
    ipa: str
    arpabet: str
    major_class: MajorClass
    geminate: bool = False
    singleton_base: str | None = None   # ipa of the base phoneme

    def __str__(self):
        return self.ipa


class FeatureBundle(dict):
    """Mapping feature name -> FeatureValue; absent names are unspecified."""

    def value(self, feature: str) -> FeatureValue:
        return self.get(feature, UNSPECIFIED)

    def specified(self):
        return {f: v for f, v in self.items() if v is not UNSPECIFIED}


class ReadOnlyBundle(FeatureBundle):
    """An inventory's bundle: geminates share their singleton's, so no
    caller may change one.  `FeatureBundle(b)` gives a mutable copy."""

    def _read_only(self, *args, **kwargs):
        raise TypeError('inventory feature bundles are read-only')

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # copy and pickle would otherwise refill the copy item by item
        return type(self), (dict(self),)


class InventoryError(ValueError):
    pass


class ParseError(InventoryError):
    pass


class LookupError_(KeyError):
    pass


class Frozen:
    """A record whose attributes are bound once, in its __init__ (through
    `object.__setattr__`), and never rebound or deleted."""

    def __setattr__(self, name, value):
        raise AttributeError(f'cannot assign to field {name!r}')

    def __delattr__(self, name):
        raise AttributeError(f'cannot delete field {name!r}')


class FeatureInventory(Frozen):
    """Immutable: the lists are stored as tuples and the dicts behind
    read-only mapping proxies."""
    language_tag: str
    phonemes: tuple[PhonemeId, ...]
    bundles: Mapping[str, FeatureBundle]   # keyed by ipa
    features: tuple[str, ...]
    by_ipa: Mapping[str, PhonemeId]
    by_arpabet: Mapping[str, PhonemeId]

    def __init__(self, language_tag: str, phonemes, bundles, features):
        phonemes = tuple(phonemes)
        assign = object.__setattr__
        assign(self, 'language_tag', language_tag)
        assign(self, 'phonemes', phonemes)
        assign(self, 'bundles', MappingProxyType(dict(bundles)))
        assign(self, 'features', tuple(features))
        assign(self, 'by_ipa', MappingProxyType({p.ipa: p for p in phonemes}))
        assign(self, 'by_arpabet',
               MappingProxyType({p.arpabet: p for p in phonemes}))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.language_tag, self.phonemes, self.bundles,
                self.features) == (other.language_tag, other.phonemes,
                                   other.bundles, other.features)

    # -- basic lookups ----------------------------------------------------
    def phoneme(self, key) -> PhonemeId:
        if isinstance(key, PhonemeId):
            key = key.ipa
        if key in self.by_ipa:
            return self.by_ipa[key]
        if key in self.by_arpabet:
            return self.by_arpabet[key]
        raise LookupError_(f'unknown phoneme {key!r}')

    def singletons(self) -> list[PhonemeId]:
        return [p for p in self.phonemes if not p.geminate]

    def geminates(self) -> list[PhonemeId]:
        return [p for p in self.phonemes if p.geminate]


def classify_major(bundle: FeatureBundle) -> MajorClass:
    """Major class from the vowel/glide/cons features; exactly one is +."""
    plus = [f for f in ('vowel', 'glide', 'cons')
            if bundle.value(f) is PLUS]
    if len(plus) != 1:
        raise InventoryError(
            f'major-class features not a partition: {plus or "none"} set')
    return {'vowel': MajorClass.VOWEL, 'glide': MajorClass.GLIDE,
            'cons': MajorClass.CONSONANT}[plus[0]]


def features_of(inv: FeatureInventory, phoneme) -> FeatureBundle:
    """The stored bundle; geminates share their singleton's bundle."""
    p = inv.phoneme(phoneme)
    return inv.bundles[p.ipa]


def distinguishing_features(inv: FeatureInventory, p1, p2) -> set[str]:
    """Features whose values differ; unspecified-vs-anything differs."""
    b1, b2 = features_of(inv, p1), features_of(inv, p2)
    return {f for f in inv.features if b1.value(f) is not b2.value(f)}


def natural_class(inv: FeatureInventory,
                  constraints: dict[str, FeatureValue]) -> set[PhonemeId]:
    """Singletons matching every constraint; ± matches both polarities."""
    for f in constraints:
        if f not in inv.features:
            raise LookupError_(f'unknown feature {f!r}')
    out = set()
    for p in inv.singletons():
        b = inv.bundles[p.ipa]
        ok = True
        for f, want in constraints.items():
            have = b.value(f)
            if have is want:
                continue
            if have is PLUSMINUS and want in (PLUS, MINUS):
                continue
            ok = False
            break
        if ok:
            out.add(p)
    return out


def load_inventory(text: str) -> FeatureInventory:
    """Parse an inventory file (see the data files for the format)."""
    language = ''
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip('\n')
        if line.startswith('# language:'):
            language = line.split(':', 1)[1].strip()
        if not line or line.startswith('#'):
            continue
        cells = line.split('\t')
        if header is None:
            if cells[:2] != ['phoneme', 'arpabet']:
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
    features = header[2:-1] if has_base else header[2:]
    if len(set(features)) != len(features):
        dupes = {f for f in features if features.count(f) > 1}
        raise ParseError(f'duplicated feature column(s): {sorted(dupes)}')
    valmap = {v.value: v for v in FeatureValue}

    by_ipa: dict[str, PhonemeId] = {}
    bundles: dict[str, FeatureBundle] = {}
    seen: dict[str, tuple[int, str]] = {}      # ipa -> (line, arpabet)
    seen_arpabet: set[str] = set()
    pending = []    # geminate rows, resolved after singletons
    for lineno, cells in rows:
        ipa, arp = cells[0], cells[1]
        base = cells[-1] if has_base else '.'
        vals = cells[2:-1] if has_base else cells[2:]
        if ipa in seen:
            first, label = seen[ipa]
            raise InventoryError(f'line {lineno}: duplicate phoneme {ipa!r}, '
                                 f'already on line {first} as {label}')
        if arp in seen_arpabet:
            raise InventoryError(
                f'line {lineno}: duplicate ARPAbet label {arp!r}')
        seen[ipa] = (lineno, arp)
        seen_arpabet.add(arp)
        if base != '.':
            pending.append((ipa, arp, base))
            continue
        cells = {}
        for f, c in zip(features, vals):
            if c not in valmap:
                raise ParseError(f'line {lineno}: bad cell {c!r}')
            if c != '.':
                cells[f] = valmap[c]
        bundle = ReadOnlyBundle(cells)
        by_ipa[ipa] = PhonemeId(ipa, arp, classify_major(bundle))
        bundles[ipa] = bundle
    singletons = list(by_ipa.values())

    for ipa, arp, base in pending:
        if base not in bundles:
            raise InventoryError(
                f'geminate {ipa!r} references unknown base {base!r}')
        by_ipa[ipa] = PhonemeId(ipa, arp, by_ipa[base].major_class,
                                geminate=True, singleton_base=base)
        bundles[ipa] = bundles[base]

    # every singleton bundle must be distinct: group them by their
    # specified values (a bundle holds no unspecified ones).  Groups keep
    # the order of their first members, so the first group with twins
    # holds the earliest phoneme that has a later twin.
    twins: dict[frozenset, list[PhonemeId]] = {}
    for p in singletons:
        twins.setdefault(frozenset(bundles[p.ipa].items()), []).append(p)
    clash = next((group for group in twins.values() if len(group) > 1),
                 None)
    if clash:
        raise InventoryError(
            f'non-distinct bundles: {clash[0].arpabet} vs {clash[1].arpabet}')

    return FeatureInventory(language, list(by_ipa.values()), bundles,
                            features)


def serialize_inventory(inv: FeatureInventory) -> str:
    """Inverse of load_inventory (comments are not preserved)."""
    lines = [f'# language: {inv.language_tag}',
             'phoneme\tarpabet\t' + '\t'.join(inv.features) + '\tbase']
    for p in inv.phonemes:
        if p.geminate:
            cells = ['.'] * len(inv.features) + [p.singleton_base]
        else:
            b = inv.bundles[p.ipa]
            cells = [b.value(f).value for f in inv.features] + ['.']
        lines.append(f'{p.ipa}\t{p.arpabet}\t' + '\t'.join(cells))
    return '\n'.join(lines) + '\n'


# the data files shipped with the package
DATA_DIR = Path(__file__).with_name('data')


def _read_data(name: str) -> str:
    return (DATA_DIR / name).read_text('utf-8')


def load_italian() -> FeatureInventory:
    return load_inventory(_read_data('italian_features.tsv'))


def load_english() -> FeatureInventory:
    return load_inventory(_read_data('english_features.tsv'))
