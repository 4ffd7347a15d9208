import random

import pytest

from lamit.textgrid import (AnnotationDocument, Interval, IntervalTier,
                            Point, PointTier, TextGridError,
                            TextGridParseError, parse_textgrid,
                            serialize_textgrid)


def sample_doc():
    word = IntervalTier('Word', [
        Interval(0.0, 0.35, 'MAMMA'),
        Interval(0.35, 0.5, ''),
        Interval(0.5, 0.95, 'BENE'),
    ])
    marks = PointTier('Landmark', [
        Point(0.12, 'V'), Point(0.3, 'C-rel:+son'), Point(0.62, 'V'),
    ])
    return AnnotationDocument(1.0, [word, marks])


def test_roundtrip_identity():
    doc = sample_doc()
    text = serialize_textgrid(doc)
    again = parse_textgrid(text)
    assert again.duration == doc.duration
    assert [t.name for t in again.tiers] == ['Word', 'Landmark']
    assert again.tiers[0].items == doc.tiers[0].items
    assert again.tiers[1].items == doc.tiers[1].items
    # parse(serialize(parse(x))) is byte-stable
    assert serialize_textgrid(again) == text


def test_roundtrip_with_quotes_and_unicode():
    tier = IntervalTier('Word', [Interval(0.0, 0.5, 'PAPÀ "quoted"')])
    doc = AnnotationDocument(0.5, [tier])
    again = parse_textgrid(serialize_textgrid(doc))
    assert again.tiers[0].items[0].label == 'PAPÀ "quoted"'


def test_parse_utf16():
    text = serialize_textgrid(sample_doc())
    data = text.encode('utf-16')        # with BOM
    doc = parse_textgrid(data)
    assert doc.tiers[0].items[0].label == 'MAMMA'


def test_parse_praat_style_file():
    praat = '''File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 2.5
tiers? <exists>
size = 2
item []:
    item [1]:
        class = "IntervalTier"
        name = "Word"
        xmin = 0
        xmax = 2.5
        intervals: size = 2
        intervals [1]:
            xmin = 0
            xmax = 1.25
            text = "ciao"
        intervals [2]:
            xmin = 1.25
            xmax = 2.5
            text = ""
    item [2]:
        class = "TextTier"
        name = "Landmark"
        xmin = 0
        xmax = 2.5
        points: size = 1
        points [1]:
            number = 0.8
            mark = "V"
'''
    doc = parse_textgrid(praat)
    assert doc.duration == 2.5
    assert isinstance(doc.tiers[0], IntervalTier)
    assert isinstance(doc.tiers[1], PointTier)
    assert doc.tiers[1].items[0].time == 0.8


def test_exponent_notation_times():
    text = serialize_textgrid(sample_doc())
    assert text.count('xmax = 1\n') == 3 and 'number = 0.3\n' in text
    text = text.replace('xmax = 1\n', 'xmax = 1e+00\n', 2)
    text = text.replace('xmax = 1\n', 'xmax = 1E+0\n')
    text = text.replace('number = 0.3\n', 'number = 3.0e-1\n')
    doc = parse_textgrid(text)
    want = sample_doc()
    assert doc.duration == want.duration
    assert [t.items for t in doc.tiers] == [t.items for t in want.tiers]


def test_unread_values_after_last_tier_rejected():
    # a declared tier count below the tiers present leaves values over
    text = serialize_textgrid(sample_doc()).replace('size = 2\n',
                                                    'size = 1\n', 1)
    with pytest.raises(TextGridParseError, match='after the last tier'):
        parse_textgrid(text)
    extra = serialize_textgrid(sample_doc()) + '0.5 "stray"\n'
    with pytest.raises(TextGridParseError, match='after the last tier'):
        parse_textgrid(extra)


@pytest.mark.parametrize('old, new, message', [
    # a value of the wrong kind is reported where it stands, not as the
    # fault it would cause once later values had shifted into its place
    ('xmax = 1\n', 'xmax = oops\n', "line 5: number expected, found 'oops'"),
    ('            xmin = 0.35\n', '            xmin = oops\n',
     "line 20: number expected, found 'oops'"),
    ('text = "MAMMA"', 'text = MAMMA',
     "line 18: quoted string expected, found 'MAMMA'"),
    ('name = "Word"', 'name = 12',
     "line 11: quoted string expected, found '12'"),
    ('mark = "V"', 'mark = 0.5',
     "line 35: quoted string expected, found '0.5'"),
    ('number = 0.3\n', 'number = "0.3"\n',
     'line 37: number expected, found \'"0.3"\''),
    ('xmax = 0.95\n', 'xmax = 0.95s\n',
     "line 25: number expected, found '0.95s'"),
])
def test_value_of_wrong_kind_named(old, new, message):
    text = serialize_textgrid(sample_doc())
    assert old in text
    with pytest.raises(TextGridParseError, match=f'^{message}$'):
        parse_textgrid(text.replace(old, new, 1))


@pytest.mark.parametrize('label, message', [
    ('"Word"', r"""line 18: number expected, found '"\n        intervals"""
               r""" [2]:\n            xmi'..."""),
    ('"MAMMA"', r"""line 26: number expected, found '"\n    item [2]:\n"""
                r"""        class = "'"""),
    ('"BENE"', r"""line 35: number expected, found '"\n        points"""
               r""" [2]:\n            number'..."""),
])
def test_unclosed_quote_is_reported_on_one_line(label, message):
    """A tier name or label without its closing quote runs on to the next
    quote; the error quotes what it ran over with repr, cut after 40
    characters."""
    text = serialize_textgrid(sample_doc())
    with pytest.raises(TextGridParseError) as e:
        parse_textgrid(text.replace(label, label[:-1], 1))
    assert str(e.value) == message


def test_short_format_values():
    long = serialize_textgrid(sample_doc())
    values = [ln.split(' = ', 1)[1] for ln in long.splitlines()[3:]
              if ' = ' in ln]
    short = ('File type = "ooTextFile"\nObject class = "TextGrid"\n\n'
             + '\n'.join(values[:2] + ['<exists>'] + values[2:]) + '\n')
    doc = parse_textgrid(short)
    assert [t.items for t in doc.tiers] == \
        [t.items for t in sample_doc().tiers]


def test_malformed_header():
    with pytest.raises(TextGridParseError, match='header'):
        parse_textgrid('not a textgrid at all')


def test_overlapping_intervals_rejected():
    with pytest.raises(TextGridError, match='overlap'):
        IntervalTier('Word', [Interval(0, 0.6, 'a'), Interval(0.5, 1, 'b')])


def test_interval_needs_positive_span():
    with pytest.raises(TextGridError):
        Interval(0.5, 0.5, 'x')
    with pytest.raises(TextGridError):
        Interval(-0.1, 0.5, 'x')


def test_replace_checks_intervals_and_points():
    assert Interval(0, 1, 'a')._replace(t_end=2) == Interval(0, 2, 'a')
    with pytest.raises(TextGridError):
        Interval(0, 1, 'a')._replace(t_end=0)
    with pytest.raises(TextGridError):
        Point(0.5, 'a')._replace(time=float('nan'))


def test_points_strictly_increasing():
    with pytest.raises(TextGridError):
        PointTier('L', [Point(0.5, 'a'), Point(0.5, 'b')])


def test_items_must_fit_duration():
    tier = IntervalTier('Word', [Interval(0, 2.0, 'a')])
    with pytest.raises(TextGridError, match='past'):
        AnnotationDocument(1.0, [tier])


def test_document_xmax_shorter_than_content():
    text = serialize_textgrid(sample_doc()).replace(
        'xmax = 1', 'xmax = 0.4', 1)
    with pytest.raises(TextGridError, match='past'):
        parse_textgrid(text)


def test_random_roundtrips():
    rng = random.Random(9)
    for _ in range(25):
        tiers = []
        for k in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                # times quantized to the 9-decimal file interface
                t, items = 0.0, []
                for _ in range(rng.randint(0, 6)):
                    end = round(t + rng.randint(1, 400) / 16000, 9)
                    items.append(Interval(t, end,
                                          rng.choice(['', 'AA1', 'x y'])))
                    t = end
                tiers.append(IntervalTier(f'I{k}', items))
            else:
                times = sorted(rng.sample(range(1, 2000), rng.randint(0, 5)))
                tiers.append(PointTier(
                    f'P{k}', [Point(x / 1000, 'V') for x in times]))
        doc = AnnotationDocument(2.0, tiers)
        text = serialize_textgrid(doc)
        again = parse_textgrid(text)
        for a, b in zip(doc.tiers, again.tiers):
            assert a.name == b.name
            assert a.items == b.items
        assert serialize_textgrid(again) == text


def test_tier_lookup():
    doc = sample_doc()
    assert doc.tier('Word').name == 'Word'
    assert doc.has_tier('Landmark')
    with pytest.raises(TextGridError):
        doc.tier('LEXI')


def test_word_plus_lexi_fixture_parses():
    from pathlib import Path
    path = Path(__file__).parent / 'fixtures' / 'word_lexi.TextGrid'
    doc = parse_textgrid(path.read_bytes())
    assert len(doc.tiers) == 2
    assert [t.name for t in doc.tiers] == ['Word', 'LEXI']
    assert len(doc.tier('Word').labelled()) == 6
    assert len(doc.tier('LEXI').labelled()) == 21


def test_equality_is_field_wise():
    assert sample_doc() == sample_doc()
    assert sample_doc().tiers[0] == sample_doc().tiers[0]
    assert sample_doc().tiers[1] == sample_doc().tiers[1]
    assert sample_doc() != AnnotationDocument(2.0, sample_doc().tiers)
    assert IntervalTier('Word') != IntervalTier('Other')
    assert PointTier('Marks', [Point(0.1)]) != PointTier('Marks')


def test_tiers_of_different_classes_are_not_equal():
    assert IntervalTier('Word') != PointTier('Word')
    assert PointTier('Word') != IntervalTier('Word')


def test_tier_is_not_equal_to_a_tuple():
    tier = IntervalTier('Word', [Interval(0.0, 0.5, 'MAMMA')])
    assert tier != ('Word', tier.items)
    assert PointTier('Marks') != ('Marks', [])
    assert sample_doc() != (1.0, sample_doc().tiers)


@pytest.mark.parametrize('make, names', [
    (lambda: sample_doc().tiers[0], ('name', 'items')),
    (lambda: sample_doc().tiers[1], ('name', 'items')),
    (sample_doc, ('duration', 'tiers')),
], ids=['IntervalTier', 'PointTier', 'AnnotationDocument'])
def test_fields_cannot_be_rebound_or_deleted(make, names):
    obj = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    # nor can the items or tiers be edited in place: they are tuples
    values = getattr(obj, names[-1])
    assert not hasattr(values, 'append')
    with pytest.raises(TypeError):
        values[0] = values[-1]
    assert obj == make()
    with pytest.raises(TypeError):
        hash(obj)


def test_with_tier_replaces_the_tier_of_its_name_in_place():
    word = sample_doc().tiers[0]
    old = IntervalTier('LEXI', [Interval(0.0, 0.35, 'M')])
    new = IntervalTier('LEXI', [Interval(0.0, 0.35, 'B')])
    assert AnnotationDocument(1.0, [old, word]).with_tier(new).tiers == \
        (new, word)
    # a document that already stacks copies keeps one, at the first place
    assert AnnotationDocument(1.0, [word, old, old]).with_tier(new).tiers == \
        (word, new)
    marks = PointTier('Landmark')
    assert AnnotationDocument(1.0, [word]).with_tier(marks).tiers == \
        (word, marks)


def test_overlapping_items_cannot_be_bound_after_the_check():
    tier = IntervalTier('Word', [Interval(0, 2)])
    with pytest.raises(AttributeError):
        tier.items = [Interval(0, 2), Interval(1, 3)]
    with pytest.raises(AttributeError):
        tier.items.append(Interval(1, 3))
    assert tier.items == (Interval(0, 2),)


def test_truncated_document_is_refused():
    lines = serialize_textgrid(sample_doc()).splitlines()
    for cut in (1, 4):
        with pytest.raises(TextGridParseError,
                           match=r'^unexpected end of file \('):
            parse_textgrid('\n'.join(lines[:-cut]) + '\n')
