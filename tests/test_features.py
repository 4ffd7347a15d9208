import itertools

import pytest

from lamit.features import (FeatureBundle, InventoryError, LookupError_,
                            MINUS, PLUS, MajorClass, classify_major,
                            distinguishing_features, features_of,
                            load_inventory, load_italian, natural_class,
                            serialize_inventory)


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
    # copies made for estimates stay mutable
    mutable = FeatureBundle(single)
    mutable['nasal'] = MINUS
    assert features_of(inv, 'mm').value('nasal') is PLUS
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
    for name in ('language_tag', 'phonemes', 'bundles', 'features',
                 'by_ipa', 'by_arpabet'):
        with pytest.raises(AttributeError):
            setattr(inv, name, None)


def test_inventory_does_not_share_the_callers_containers(italian):
    phonemes, bundles = list(italian.phonemes), dict(italian.bundles)
    features = list(italian.features)
    inv = type(italian)('it', phonemes, bundles, features)
    phonemes.pop()
    bundles.clear()
    features.append('extra')
    assert len(inv.phonemes) == 50 and len(inv.bundles) == 50
    assert inv.features == italian.features


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


def test_distinguishing_unknown_phoneme(italian):
    with pytest.raises(LookupError_):
        distinguishing_features(italian, 'a', 'x')


def test_natural_class_examples(italian):
    nas = natural_class(italian, {'nasal': PLUS})
    assert {p.ipa for p in nas} == {'m', 'n', 'ɲ'}
    vow = natural_class(italian, {'vowel': PLUS})
    assert {p.ipa for p in vow} == {'a', 'e', 'i', 'o', 'u', 'ɛ', 'ɔ'}
    assert len(natural_class(italian, {})) == 30


def test_natural_class_plusminus_matches_both(italian):
    # affricates are [±cont]: they appear in both polarity classes
    plus = {p.ipa for p in natural_class(italian, {'cont': PLUS})}
    minus = {p.ipa for p in natural_class(italian, {'cont': MINUS})}
    for aff in ('ts', 'dz', 'tʃ', 'dʒ'):
        assert aff in plus and aff in minus


def test_natural_class_polarity_complement(italian):
    # f:v and f:¬v never overlap except through ± cells
    for feat in italian.features:
        plus = natural_class(italian, {feat: PLUS})
        minus = natural_class(italian, {feat: MINUS})
        both = {p.ipa for p in plus & minus}
        for ipa in both:
            assert italian.bundles[ipa].value(feat).value == '±'


def test_roundtrip_serialize_load(italian, english):
    for inv in (italian, english):
        again = load_inventory(serialize_inventory(inv))
        assert [p.ipa for p in again.phonemes] == [p.ipa for p in inv.phonemes]
        assert again.features == inv.features
        assert again.bundles == inv.bundles
        assert again.language_tag == inv.language_tag


def test_load_empty_document():
    with pytest.raises(InventoryError, match='no phoneme rows'):
        load_inventory('# only a comment\n')


def test_load_duplicate_phoneme(italian):
    text = serialize_inventory(italian)
    lines = text.splitlines()
    brow = next(ln for ln in lines if ln.startswith('b\t'))
    lines.insert(lines.index(brow) + 1, brow)
    with pytest.raises(InventoryError, match='B'):
        load_inventory('\n'.join(lines))


def test_load_duplicate_arpabet_label(italian):
    # a second row labelled AA, under another symbol
    lines = serialize_inventory(italian).splitlines()
    arow = next(ln for ln in lines if ln.startswith('a\t'))
    lines.append('ä' + arow[1:])
    with pytest.raises(InventoryError,
                       match=f"^line {len(lines)}: duplicate ARPAbet "
                             "label 'AA'$"):
        load_inventory('\n'.join(lines))


@pytest.mark.parametrize('symbol, label', [('b', 'B'), ('bb', 'BB')])
def test_load_duplicate_phoneme_names_symbol_and_first_row(italian, symbol,
                                                          label):
    # the repeat carries a fresh label, so only its symbol repeats
    lines = serialize_inventory(italian).splitlines()
    row = next(ln for ln in lines if ln.startswith(f'{symbol}\t'))
    first = lines.index(row) + 1
    assert row.split('\t')[1] == label
    lines.insert(first, f'{symbol}\tZZ\t' + row.split('\t', 2)[2])
    with pytest.raises(InventoryError,
                       match=f"^line {first + 1}: duplicate phoneme "
                             f"'{symbol}', already on line {first} as "
                             f"{label}$"):
        load_inventory('\n'.join(lines))


def test_load_colliding_bundles(italian):
    # overwrite the p row with the b row's cells: bundles collide
    text = serialize_inventory(italian)
    lines = text.splitlines()
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
    from lamit.features import FeatureName
    free = {f for f in italian.features
            if FeatureName(f).kind == 'articulator-free'}
    assert free == {'vowel', 'glide', 'cons', 'cont', 'son', 'strid'}
    assert FeatureName('nasal').articulator_group == 'soft-palate'
    assert FeatureName('stiff').articulator_group == 'vocal-folds'
    assert FeatureName('cons').articulator_group == 'none'
