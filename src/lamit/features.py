"""Distinctive-feature inventories and queries over them."""
from __future__ import annotations

import enum
from collections.abc import Mapping
from functools import cached_property
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


class MajorClass(enum.Enum):
    VOWEL = 'vowel'
    GLIDE = 'glide'
    CONSONANT = 'consonant'


class PhonemeId(NamedTuple):
    ipa: str
    arpabet: str
    major_class: MajorClass
    singleton_base: str | None = None   # ipa of a geminate's base phoneme

    @property
    def geminate(self) -> bool:
        return self.singleton_base is not None

    def __str__(self):
        return self.ipa


class FeatureBundle(dict):
    """Mapping feature name -> FeatureValue; absent names are unspecified."""

    def value(self, feature: str) -> FeatureValue:
        return self.get(feature, UNSPECIFIED)


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
    """A container whose attributes are bound once, through `_bind` in its
    __init__, and never rebound or deleted.  It equals an object of its
    own class whose `_fields` are equal; it is not hashable."""
    _fields: tuple[str, ...]     # each subclass names its own

    def _bind(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f'cannot assign to field {name!r}')

    def __delattr__(self, name):
        raise AttributeError(f'cannot delete field {name!r}')

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (tuple(getattr(self, f) for f in self._fields) ==
                tuple(getattr(other, f) for f in self._fields))


class Checked:
    """Checks a `typing.NamedTuple` record when built: subclass it before
    the NamedTuple, with `__slots__ = ()`, and define `_check(self)`."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    # _replace builds through _make: check its result too
    _make = classmethod(lambda cls, values: cls(*values))


class BundleTable(NamedTuple):
    """An inventory's distinct bundles, each counted once."""
    bundles: tuple[FeatureBundle, ...]      # in order of first use
    columns: tuple[int, ...]   # each phoneme's place in `bundles`


class FeatureInventory(Frozen):
    """Immutable: the lists are stored as tuples and the dicts behind
    read-only mapping proxies.  Checked when built (`InventoryError`):
    ipa symbols and ARPAbet labels are unique, each phoneme has a bundle
    naming only `features` and of its `major_class`, singletons' bundles
    are distinct, and a geminate's is its singleton's, the same object."""
    _fields = ('language_tag', 'phonemes', 'bundles', 'features')
    language_tag: str
    phonemes: tuple[PhonemeId, ...]
    bundles: Mapping[str, FeatureBundle]   # keyed by ipa
    features: tuple[str, ...]
    by_ipa: Mapping[str, PhonemeId]
    by_arpabet: Mapping[str, PhonemeId]

    def __init__(self, language_tag: str, phonemes, bundles, features):
        phonemes = tuple(phonemes)
        features = tuple(features)
        by_ipa, by_arpabet = {}, {}
        for p in phonemes:
            for table, key, what in ((by_ipa, p.ipa, 'phoneme'),
                                     (by_arpabet, p.arpabet, 'ARPAbet label')):
                if key in table:
                    raise InventoryError(f'duplicate {what} {key!r}')
                table[key] = p
        self._bind(language_tag=language_tag, phonemes=phonemes,
                   bundles=MappingProxyType(
                       _checked_bundles(by_ipa, bundles, set(features))),
                   features=features, by_ipa=MappingProxyType(by_ipa),
                   by_arpabet=MappingProxyType(by_arpabet))

    @cached_property
    def bundle_table(self) -> BundleTable:
        """The distinct bundles, one per singleton in `phonemes` order; a
        geminate takes its singleton's column.  Built on first use."""
        place: dict[str, int] = {}      # singleton ipa -> its column
        columns = tuple(place.setdefault(p.singleton_base or p.ipa,
                                         len(place))
                        for p in self.phonemes)
        return BundleTable(tuple(self.bundles[ipa] for ipa in place),
                           columns)

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


def _checked_bundles(by_ipa: Mapping[str, PhonemeId], bundles,
                     features: set[str]) -> dict[str, ReadOnlyBundle]:
    """Each phoneme's bundle, read-only, a geminate's being its
    singleton's object; `InventoryError` where one breaks a rule."""
    out = {}
    twins: dict[frozenset, list[PhonemeId]] = {}    # singletons by value
    for ipa, p in by_ipa.items():
        if ipa not in bundles:
            raise InventoryError(f'phoneme {ipa!r} has no bundle')
        bundle = out[ipa] = ReadOnlyBundle(bundles[ipa])
        stray = [name for name in bundle if name not in features]
        if stray:
            raise InventoryError(f'phoneme {ipa!r}: feature {stray[0]!r} '
                                 f'is not in the inventory')
        if not p.geminate:
            twins.setdefault(frozenset(bundle.items()), []).append(p)
    # in first-member order, so the earliest phoneme with a twin is named
    for group in twins.values():
        if len(group) > 1:
            raise InventoryError(f'non-distinct bundles: {group[0].arpabet} '
                                 f'vs {group[1].arpabet}')
    for p in by_ipa.values():
        if p.geminate:
            base = p.singleton_base
            if base not in by_ipa or by_ipa[base].geminate:
                raise InventoryError(
                    f'geminate {p.ipa!r}: base {base!r} is not a singleton')
            if out[p.ipa] != out[base]:
                raise InventoryError(f'geminate {p.ipa!r}: bundle differs '
                                     f'from that of its base {base!r}')
            out[p.ipa] = out[base]
    # last: a geminate with an unknown base has no bundle to classify
    for p in by_ipa.values():
        try:
            major = classify_major(out[p.ipa])
        except InventoryError as e:
            raise InventoryError(f'phoneme {p.ipa!r}: {e}') from None
        if major is not p.major_class:
            raise InventoryError(f'phoneme {p.ipa!r}: class '
                                 f'{p.major_class.value}, but its bundle '
                                 f'is of class {major.value}')
    return out


_MAJOR = {'vowel': MajorClass.VOWEL, 'glide': MajorClass.GLIDE,
          'cons': MajorClass.CONSONANT}


def classify_major(bundle: FeatureBundle) -> MajorClass:
    """Major class from the vowel/glide/cons features; exactly one is +."""
    plus = [f for f in _MAJOR if bundle.get(f) is PLUS]
    if len(plus) != 1:
        raise InventoryError(
            f'major-class features not a partition: {plus or "none"} set')
    return _MAJOR[plus[0]]


def features_of(inv: FeatureInventory, phoneme) -> FeatureBundle:
    """The stored bundle; geminates share their singleton's bundle."""
    p = inv.phoneme(phoneme)
    return inv.bundles[p.ipa]


def distinguishing_features(inv: FeatureInventory, p1, p2) -> set[str]:
    """Features whose values differ; unspecified-vs-anything differs."""
    b1, b2 = features_of(inv, p1), features_of(inv, p2)
    return {f for f in inv.features if b1.value(f) is not b2.value(f)}


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
        bundles[ipa] = bundle = FeatureBundle(cells)
        try:
            by_ipa[ipa] = PhonemeId(ipa, arp, classify_major(bundle))
        except InventoryError as e:
            raise InventoryError(
                f'line {lineno}: phoneme {ipa!r}: {e}') from None

    for ipa, arp, base in pending:
        if base not in bundles:
            raise InventoryError(
                f'geminate {ipa!r} references unknown base {base!r}')
        by_ipa[ipa] = PhonemeId(ipa, arp, by_ipa[base].major_class, base)
        bundles[ipa] = bundles[base]

    return FeatureInventory(language, list(by_ipa.values()), bundles,
                            features)


# the data files shipped with the package
DATA_DIR = Path(__file__).with_name('data')


def _read_data(name: str) -> str:
    return (DATA_DIR / name).read_text('utf-8')


def load_italian() -> FeatureInventory:
    return load_inventory(_read_data('italian_features.tsv'))


def load_english() -> FeatureInventory:
    return load_inventory(_read_data('english_features.tsv'))
