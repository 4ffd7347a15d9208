import itertools

import pytest

from lamit.features import (DATA_DIR, FeatureBundle, FeatureInventory,
                            InventoryError, LookupError_, MINUS, PLUS,
                            MajorClass, PhonemeId,
                            classify_major, distinguishing_features,
                            features_of, load_inventory, load_italian)


def test_italian_inventory_shape(italian):
    assert len(italian.phonemes) == 50
    assert len(italian.singletons()) == 30
    assert len(italian.geminates()) == 20
    assert len(italian.features) == 24


def test_class_partition_sizes(italian):
    by_class = {MajorClass.VOWEL: 0, MajorClass.GLIDE: 0,
                MajorClass.CONSONANT: 0}
    for p in italian.singletons():
        by_class[classify_major(italian.bundles[p.ipa])] += 1
    assert by_class[MajorClass.VOWEL] == 7
    assert by_class[MajorClass.GLIDE] == 2
    assert by_class[MajorClass.CONSONANT] == 21


def test_pairwise_distinctness(italian):
    for a, b in itertools.combinations(italian.singletons(), 2):
        assert distinguishing_features(italian, a, b), \
            f'{a.arpabet} and {b.arpabet} share a bundle'


def test_geminates_inherit_base_bundle(italian):
    for g in italian.geminates():
        assert g.singleton_base is not None
        assert features_of(italian, g) == features_of(italian, g.singleton_base)
        assert g.arpabet == italian.phoneme(g.singleton_base).arpabet * 2


def test_p_bundle_matches_chart(italian):
    b = features_of(italian, 'p')
    want = {'cons': PLUS, 'cont': MINUS, 'son': MINUS, 'lips': PLUS,
            'ant': PLUS, 'round': MINUS, 'stiff': PLUS}
    for f, v in want.items():
        assert b.value(f) is v


def test_palatal_nasal_is_dorsal(italian):
    b = features_of(italian, 'ɲ')
    assert b.value('body') is PLUS
    assert b.value('blade') is MINUS


def test_geminate_equals_singleton(italian):
    assert features_of(italian, 'mm') == features_of(italian, 'm')


def test_inventory_bundles_read_only():
    import copy
    import pickle
    inv = load_italian()        # a private copy, in case a mutator slips
    single = features_of(inv, 'm')
    assert features_of(inv, 'mm') is single
    before = dict(single)
    for mutate in (lambda b: b.__setitem__('nasal', MINUS),
                   lambda b: b.__delitem__('nasal'),
                   lambda b: b.pop('nasal'),
                   lambda b: b.popitem(),
                   lambda b: b.setdefault('lat', PLUS),
                   lambda b: b.update(nasal=MINUS),
                   lambda b: b.__ior__({'nasal': MINUS}),
                   lambda b: b.clear()):
        with pytest.raises(TypeError):
            mutate(single)
    assert features_of(inv, 'mm') == features_of(inv, 'm') == before
    # a copy is a bundle, read-only too
    with pytest.raises(TypeError):
        FeatureBundle(single)['nasal'] = MINUS
    for again in (copy.copy(single), copy.deepcopy(single),
                  pickle.loads(pickle.dumps(single))):
        assert type(again) is type(single) and again == single


def test_inventory_bundle_table_read_only():
    inv = load_italian()
    with pytest.raises(TypeError):
        inv.bundles['m'] = FeatureBundle()
    with pytest.raises(TypeError):
        del inv.bundles['m']
    assert inv.bundles['m'] is features_of(inv, 'm')


def test_inventory_feature_list_read_only():
    inv = load_italian()
    with pytest.raises(AttributeError):
        inv.features.append('extra')
    assert 'extra' not in inv.features and isinstance(inv.features, tuple)


def test_inventory_phoneme_list_read_only():
    inv = load_italian()
    with pytest.raises(AttributeError):
        inv.phonemes.pop()
    assert len(inv.phonemes) == 50


def test_inventory_lookup_tables_read_only():
    inv = load_italian()
    for table in (inv.by_ipa, inv.by_arpabet):
        with pytest.raises(TypeError):
            table['Q'] = inv.phonemes[0]
    assert 'Q' not in inv.by_ipa and 'Q' not in inv.by_arpabet


def test_inventory_fields_cannot_be_rebound():
    inv = load_italian()
    for name in ('phonemes', 'bundles', 'features', 'by_ipa', 'by_arpabet'):
        with pytest.raises(AttributeError):
            setattr(inv, name, None)


def test_inventory_does_not_share_the_callers_containers(italian):
    phonemes, bundles = list(italian.phonemes), dict(italian.bundles)
    features = list(italian.features)
    inv = type(italian)(phonemes, bundles, features)
    phonemes.pop()
    bundles.clear()
    features.append('extra')
    assert len(inv.phonemes) == 50 and len(inv.bundles) == 50
    assert inv.features == italian.features


def hand_built(phonemes=None, **bundles):
    """Three phonemes over two features, built from the caller's
    bundles; keywords replace (or, as None, drop) a phoneme's bundle."""
    cells = {'a': FeatureBundle({'vowel': PLUS}),
             't': FeatureBundle({'cons': PLUS}),
             'tt': FeatureBundle({'cons': PLUS})}
    cells.update(bundles)
    phonemes = phonemes or [PhonemeId('a', 'AA', MajorClass.VOWEL),
                            PhonemeId('t', 'T', MajorClass.CONSONANT),
                            PhonemeId('tt', 'TT', MajorClass.CONSONANT, 't')]
    return FeatureInventory(phonemes,
                            {k: v for k, v in cells.items() if v is not None},
                            ('vowel', 'cons'))


def test_hand_built_bundles_are_frozen_and_shared():
    t = {'cons': PLUS}
    inv = hand_built(t=t)
    with pytest.raises(TypeError):
        inv.bundles['a']['cons'] = PLUS
    assert all(type(b) is FeatureBundle for b in inv.bundles.values())
    assert inv.bundles['tt'] is inv.bundles['t']
    t['cons'] = MINUS       # the caller's object, not the inventory's
    assert inv.bundles['t'] == {'cons': PLUS}


def geminate(ipa, base):
    return PhonemeId(ipa, ipa.upper(), MajorClass.CONSONANT, base)


@pytest.mark.parametrize('phonemes, bundles, message', [
    (None, {'a': None}, "phoneme 'a' has no bundle"),
    (None, {'t': FeatureBundle({'cons': PLUS, 'creaky': PLUS})},
     "phoneme 't': feature 'creaky' is not in the inventory"),
    ([geminate('dd', 'd')], {'dd': FeatureBundle()},
     "geminate 'dd': base 'd' is not a singleton"),
    ([PhonemeId('t', 'T', MajorClass.CONSONANT), geminate('tt', 't'),
      geminate('ttt', 'tt')], {'ttt': FeatureBundle({'cons': PLUS})},
     "geminate 'ttt': base 'tt' is not a singleton"),
    (None, {'tt': FeatureBundle({'cons': MINUS})},
     "geminate 'tt': bundle differs from that of its base 't'"),
    (None, {'a': FeatureBundle({'cons': PLUS})},
     'non-distinct bundles: AA vs T'),
], ids=['no bundle', 'stray name', 'unknown base', 'geminate base',
        'unequal geminate', 'twins'])
def test_hand_built_inventory_refuses_broken_bundles(phonemes, bundles,
                                                     message):
    with pytest.raises(InventoryError) as e:
        hand_built(phonemes, **bundles)
    assert str(e.value) == message


A = PhonemeId('a', 'AA', MajorClass.VOWEL)
T = PhonemeId('t', 'T', MajorClass.CONSONANT)


@pytest.mark.parametrize('phonemes, bundles, message', [
    ([A, T, PhonemeId('t', 'D', MajorClass.CONSONANT)], {},
     "duplicate phoneme 't'"),
    ([A, T, PhonemeId('d', 'T', MajorClass.CONSONANT)],
     {'d': FeatureBundle({'cons': MINUS})}, "duplicate ARPAbet label 'T'"),
    ([A, PhonemeId('t', 'T', MajorClass.VOWEL)], {},
     "phoneme 't': class vowel, but its bundle is of class consonant"),
    ([A, T, PhonemeId('tt', 'TT', MajorClass.GLIDE, 't')], {},
     "phoneme 'tt': class glide, but its bundle is of class consonant"),
    (None, {'t': FeatureBundle(), 'tt': FeatureBundle()},
     "phoneme 't': major-class features not a partition: none set"),
], ids=['ipa', 'arpabet', 'singleton class', 'geminate class',
        'no class'])
def test_hand_built_inventory_refuses_clashing_phonemes(phonemes, bundles,
                                                        message):
    """What `load_inventory` refuses or never builds, the constructor
    refuses too."""
    with pytest.raises(InventoryError) as e:
        hand_built(phonemes, **bundles)
    assert str(e.value) == message


def test_classify_major_examples(italian):
    assert classify_major(features_of(italian, 'a')) is MajorClass.VOWEL
    assert classify_major(features_of(italian, 'w')) is MajorClass.GLIDE
    assert classify_major(features_of(italian, 'ts')) is MajorClass.CONSONANT


def test_classify_major_rejects_broken_bundle(italian):
    from lamit.features import FeatureBundle
    with pytest.raises(InventoryError):
        classify_major(FeatureBundle())
    with pytest.raises(InventoryError):
        classify_major(FeatureBundle({'vowel': PLUS, 'cons': PLUS}))


def test_distinguishing_features_examples(italian):
    assert {'blade', 'body'} <= distinguishing_features(italian, 'n', 'ɲ')
    assert distinguishing_features(italian, 'ts', 'dz') == {'stiff', 'slack'}
    assert distinguishing_features(italian, 'a', 'a') == set()


def test_phoneme_by_arpabet_label(italian):
    assert italian.phoneme('TT') is italian.by_ipa['tt']
    assert italian.phoneme('LH') is italian.by_ipa['ʎ']
    assert distinguishing_features(italian, 'TS', 'DZ') == {'stiff', 'slack'}


def test_distinguishing_unknown_phoneme(italian):
    with pytest.raises(LookupError_):
        distinguishing_features(italian, 'a', 'x')


def test_load_empty_document():
    with pytest.raises(InventoryError, match='no phoneme rows'):
        load_inventory('# only a comment\n')


def italian_lines() -> list[str]:
    """The lines of the shipped Italian inventory, to edit."""
    return (DATA_DIR / 'italian_features.tsv').read_text('utf-8').splitlines()


@pytest.mark.parametrize('blank', ['   ', '\t', ' \t '])
def test_load_skips_a_whitespace_only_line(italian, blank):
    """As the lexicon and corpus readers do, after every line."""
    lines = italian_lines()
    assert load_inventory('\n'.join(lines + [blank])) == italian
    assert load_inventory(''.join(f'{ln}\n{blank}\n' for ln in lines)) \
        == italian


def test_load_duplicate_phoneme():
    lines = italian_lines()
    brow = next(ln for ln in lines if ln.startswith('b\t'))
    lines.insert(lines.index(brow) + 1, brow)
    with pytest.raises(InventoryError, match='B'):
        load_inventory('\n'.join(lines))


def test_load_duplicate_arpabet_label():
    # a second row labelled AA, under another symbol
    lines = italian_lines()
    arow = next(ln for ln in lines if ln.startswith('a\t'))
    lines.append('ä' + arow[1:])
    with pytest.raises(InventoryError,
                       match=f"^line {len(lines)}: duplicate ARPAbet "
                             "label 'AA'$"):
        load_inventory('\n'.join(lines))


@pytest.mark.parametrize('symbol, label', [('b', 'B'), ('bb', 'BB')])
def test_load_duplicate_phoneme_names_symbol_and_first_row(symbol, label):
    # the repeat carries a fresh label, so only its symbol repeats
    lines = italian_lines()
    row = next(ln for ln in lines if ln.startswith(f'{symbol}\t'))
    first = lines.index(row) + 1
    assert row.split('\t')[1] == label
    lines.insert(first, f'{symbol}\tZZ\t' + row.split('\t', 2)[2])
    with pytest.raises(InventoryError,
                       match=f"^line {first + 1}: duplicate phoneme "
                             f"'{symbol}', already on line {first} as "
                             f"{label}$"):
        load_inventory('\n'.join(lines))


def test_load_row_without_major_class_names_its_line_and_phoneme():
    text = ('phoneme\tarpabet\tvowel\tglide\tcons\n'
            'a\tAA\t+\t-\t-\n'
            'h\tHH\t-\t-\t-\n')
    with pytest.raises(InventoryError,
                       match=r"^line 3: phoneme 'h': major-class features "
                             r"not a partition: none set$"):
        load_inventory(text)
    # a geminate row is resolved after the singletons, and keeps its
    # line; it takes its base's bundle, so its own cells must be '.'
    lines = italian_lines()
    columns = next(ln for ln in lines if ln.startswith('phoneme\t'))
    own_cells = "geminate 'll': feature cells must be '.'; it takes the " \
                "bundle of 'l'"
    not_single = "geminate '{}': base '{}' is not a singleton"
    for symbol, column, cell, message in [
            ('ll', 'base', 'q', "geminate 'll' references unknown base 'q'"),
            ('ll', 'cons', '+', own_cells),
            ('ll', 'vowel', 'x', own_cells),
            ('rr', 'base', 'll', not_single.format('rr', 'll')),
            ('ll', 'base', 'rr', not_single.format('ll', 'rr')),
            ('ll', 'base', 'll', not_single.format('ll', 'll'))]:
        at = next(n for n, ln in enumerate(lines)
                  if ln.startswith(f'{symbol}\t'))
        cells = lines[at].split('\t')
        cells[columns.split('\t').index(column)] = cell
        edited = lines[:at] + ['\t'.join(cells)] + lines[at + 1:]
        with pytest.raises(InventoryError) as e:
            load_inventory('\n'.join(edited))
        assert str(e.value) == f'line {at + 1}: {message}'


def test_load_colliding_bundles():
    # overwrite the p row with the b row's cells: bundles collide
    lines = italian_lines()
    brow = next(ln for ln in lines if ln.startswith('b\t'))
    fake = 'p\tP\t' + brow.split('\t', 2)[2]
    lines = [fake if ln.startswith('p\t') else ln for ln in lines]
    with pytest.raises(InventoryError, match='non-distinct'):
        load_inventory('\n'.join(lines))


def test_english_inventory_loads(english):
    assert len(english.phonemes) == 40
    assert not english.geminates()
    assert len(english.features) == 24
    # h is the spread-glottis glide
    assert features_of(english, 'h').value('spread') is PLUS


def test_feature_kind_taxonomy(italian):
    from lamit.features import ARTICULATOR_FREE
    free = {f for f in italian.features if f in ARTICULATOR_FREE}
    assert free == {'vowel', 'glide', 'cons', 'cont', 'son', 'strid'}
