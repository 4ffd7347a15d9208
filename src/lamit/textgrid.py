"""Praat long-format TextGrid reading and writing."""
from __future__ import annotations

import math
import re
from typing import NamedTuple

from .features import Checked, Frozen


class TextGridError(ValueError):
    pass


class TextGridParseError(TextGridError):
    pass


def _fmt(x: float) -> str:
    """Times with up to 9 decimal digits, trailing zeros trimmed."""
    s = f'{x:.9f}'.rstrip('0').rstrip('.')
    return s if s else '0'


def _check_time(t: float):
    if not math.isfinite(t) or t < 0:
        raise TextGridError(f'bad time {t!r}')


class _Interval(NamedTuple):
    t_start: float
    t_end: float
    label: str = ''


class Interval(Checked, _Interval):
    __slots__ = ()

    def _check(self):
        _check_time(self.t_start)
        _check_time(self.t_end)
        if self.t_start >= self.t_end:
            raise TextGridError(
                f'empty interval [{self.t_start}, {self.t_end}]')


class _Point(NamedTuple):
    time: float
    label: str = ''


class Point(Checked, _Point):
    __slots__ = ()

    def _check(self):
        _check_time(self.time)


class IntervalTier(Frozen):
    _fields = ('name', 'items')

    def __init__(self, name: str, items=()):
        items: tuple[Interval, ...] = tuple(items)
        for a, b in zip(items, items[1:]):
            if b.t_start < a.t_end:
                raise TextGridError(
                    f'tier {name!r}: overlapping intervals at '
                    f'{a.t_end}/{b.t_start}')
        self._bind(name=name, items=items)

    @property
    def t_end(self) -> float:
        return self.items[-1].t_end if self.items else 0.0

    def labelled(self) -> list[Interval]:
        return [iv for iv in self.items if iv.label]


class PointTier(Frozen):
    _fields = ('name', 'items')

    def __init__(self, name: str, items=()):
        items: tuple[Point, ...] = tuple(items)
        for a, b in zip(items, items[1:]):
            if b.time <= a.time:
                raise TextGridError(
                    f'tier {name!r}: points not strictly increasing')
        self._bind(name=name, items=items)

    @property
    def t_end(self) -> float:
        return self.items[-1].time if self.items else 0.0


Tier = IntervalTier | PointTier


class AnnotationDocument(Frozen):
    _fields = ('duration', 'tiers')

    def __init__(self, duration: float, tiers=()):
        tiers: tuple[Tier, ...] = tuple(tiers)
        if not 0 < duration < math.inf:
            raise TextGridError(f'document end {duration!r} is not finite '
                                f'and above 0')
        for tier in tiers:
            if tier.t_end > duration + 1e-12:
                raise TextGridError(
                    f'tier {tier.name!r} extends past document end '
                    f'({tier.t_end} > {duration})')
        self._bind(duration=duration, tiers=tiers)

    def tier(self, name: str) -> Tier:
        for t in self.tiers:
            if t.name == name:
                return t
        raise TextGridError(f'no tier named {name!r}')

    def has_tier(self, name: str) -> bool:
        return any(t.name == name for t in self.tiers)

    def with_tier(self, tier: Tier) -> 'AnnotationDocument':
        """The tier in place of those of its name, or appended."""
        names = [t.name for t in (*self.tiers, tier)]
        tiers = [t for t in self.tiers if t.name != tier.name]
        tiers.insert(names.index(tier.name), tier)
        return AnnotationDocument(self.duration, tiers)


def decode_textgrid_bytes(data: bytes) -> str:
    encoding = 'utf-16' if data[:2] in (b'\xff\xfe', b'\xfe\xff') \
        else 'utf-8-sig'
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as e:
        raise TextGridParseError(f'not {e.encoding.upper()} text '
                                 f'({e.reason} at byte {e.start})') from None


# patterns, not compiled objects: re compiles them at the first parse, so
# commands that read no TextGrid do not pay for it
_NUMBER = r'[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?'
# a value is a quoted string, the word after '=' (long format) or a bare
# number (short format); bracketed item indices and keys are structure
_TOKEN = rf'"(?:[^"]|"")*"|\[[^\]"]*\]|=\s*([^\s"]+)|{_NUMBER}'


def _shown(tok: str) -> str:
    """A token as an error quotes it: on one line, whatever it spans, and
    cut after 40 characters."""
    return repr(tok[:40]) + ('...' if len(tok) > 40 else '')


class _Scanner:
    """Token scanner over the values of a TextGrid.

    Praat's long format is key = value noise around an ordered stream of
    values, so scanning the values in order is enough to rebuild it.  A
    value of the wrong kind is an error, never skipped, so a malformed
    value is reported where it stands.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = [(m.start(m.lastindex or 0), m.group(m.lastindex or 0))
                       for m in re.finditer(_TOKEN, text)
                       if not m.group(0).startswith('[')]
        self.pos = 0

    def _next(self, kind: str) -> tuple[int, str]:
        if self.pos >= len(self.tokens):
            raise TextGridParseError(f'unexpected end of file ({kind} '
                                     f'expected)')
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _wrong_kind(self, at: int, tok: str, kind: str):
        line = self.text.count('\n', 0, at) + 1
        return TextGridParseError(f'line {line}: {kind} expected, found '
                                  f'{_shown(tok)}')

    def next_number(self, ok=None, kind: str = '') -> float:
        """The next number; one for which ok(number) is false is reported
        as a value of the wrong kind, with kind as the kind expected."""
        at, tok = self._next('number')
        if not re.fullmatch(_NUMBER, tok):
            raise self._wrong_kind(at, tok, 'number')
        if ok and not ok(float(tok)):
            raise self._wrong_kind(at, tok, kind)
        return float(tok)

    def next_count(self) -> int:
        return int(self.next_number(lambda x: x >= 0 and x.is_integer(),
                                    'non-negative whole number'))

    def next_string(self) -> str:
        at, tok = self._next('string')
        if not tok.startswith('"'):
            raise self._wrong_kind(at, tok, 'quoted string')
        return tok[1:-1].replace('""', '"')

    def check_end(self):
        if self.pos < len(self.tokens):
            raise TextGridParseError(
                f'{len(self.tokens) - self.pos} unread value(s) after the '
                f'last tier, first {_shown(self.tokens[self.pos][1])}')


# a tier kind as Praat writes it: its class, its tier and item types, the
# key of its item list and its items' value keys, the label's last
_Kind = NamedTuple('_Kind', [('praat_class', str), ('tier', type),
                             ('item', type), ('key', str), ('values', tuple)])
_KINDS = (_Kind('IntervalTier', IntervalTier, Interval, 'intervals',
                ('xmin', 'xmax', 'text')),
          _Kind('TextTier', PointTier, Point, 'points', ('number', 'mark')))


def parse_textgrid(document: str | bytes) -> AnnotationDocument:
    """Parse a Praat long-format TextGrid (UTF-8 or UTF-16)."""
    if isinstance(document, bytes):
        document = decode_textgrid_bytes(document)
    head = document.lstrip()
    if not (head.startswith('File type = "ooTextFile"') or
            head.startswith('"ooTextFile"')):
        raise TextGridParseError('malformed header: not an ooTextFile')
    sc = _Scanner(document)
    if (sc.next_string(), sc.next_string()) != ('ooTextFile', 'TextGrid'):
        raise TextGridParseError('malformed header: not a TextGrid')
    xmin = sc.next_number()
    xmax = sc.next_number(lambda x: xmin < x < math.inf,
                          'finite xmax above xmin')
    ntiers = sc.next_count()
    tiers: list[Tier] = []
    for _ in range(ntiers):
        klass = sc.next_string()
        name = sc.next_string()
        sc.next_number()    # tier xmin
        sc.next_number()    # tier xmax
        size = sc.next_count()
        kind = next((k for k in _KINDS if k.praat_class == klass), None)
        if kind is None:
            raise TextGridParseError(f'unknown tier class {klass!r}')
        tiers.append(kind.tier(name, [kind.item(
            *[sc.next_number() for _ in kind.values[1:]], sc.next_string())
            for _ in range(size)]))
    sc.check_end()
    if xmin != 0:
        raise TextGridError(f'document must start at 0, not {xmin}')
    return AnnotationDocument(xmax, tiers)


def _quote(s: str) -> str:
    return '"' + s.replace('"', '""') + '"'


def _written(tier: Tier) -> tuple[list[list[str]], Tier]:
    """Each item's values as the writer writes them, its times to 9
    decimals, and the tier that the reader builds from them."""
    rows = [[*map(_fmt, item[:-1]), _quote(item[-1])] for item in tier.items]
    return rows, type(tier)(tier.name, [
        type(item)(*map(float, row[:-1]), item[-1])
        for row, item in zip(rows, tier.items)])


def serialize_textgrid(doc: AnnotationDocument) -> str:
    """The document in Praat's long format, its times to 9 decimals.  A
    document whose items would read back from them empty, out of order or
    past its end is refused with the error that the reader would raise."""
    xmax = _fmt(doc.duration)
    written = [_written(tier) for tier in doc.tiers]
    AnnotationDocument(float(xmax), [read for _, read in written])
    out = ['File type = "ooTextFile"',
           'Object class = "TextGrid"',
           '',
           'xmin = 0',
           f'xmax = {xmax}',
           'tiers? <exists>',
           f'size = {len(doc.tiers)}',
           'item []:']
    for k, (tier, (rows, _)) in enumerate(zip(doc.tiers, written), 1):
        kind = next(x for x in _KINDS if type(tier) is x.tier)
        out += [f'    item [{k}]:', f'        class = "{kind.praat_class}"',
                f'        name = {_quote(tier.name)}', '        xmin = 0',
                f'        xmax = {xmax}',
                f'        {kind.key}: size = {len(tier.items)}']
        item = '\n'.join([f'        {kind.key} [%d]:',
                          *(f'            {key} = %s' for key in kind.values)])
        out += [item % (i, *row) for i, row in enumerate(rows, 1)]
    return '\n'.join(out) + '\n'
