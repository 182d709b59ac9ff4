"""Tests for Pythia's feature space and extractor."""

from hypothesis import given, strategies as st

from repro.core.features import (
    BASIC_FEATURES,
    ControlFlow,
    DataFlow,
    FeatureExtractor,
    FeatureSpec,
    all_feature_specs,
    encode_feature,
)
from repro.prefetchers.base import DemandContext
from repro.types import make_line


def ctx(pc, page, offset):
    return DemandContext(pc=pc, line=make_line(page, offset), cycle=0)


def test_feature_space_is_32():
    """Table 3: 4 control-flow x 8 data-flow components."""
    assert len(all_feature_specs()) == 32


def test_basic_features_are_table2_winners():
    pc_delta, last4 = BASIC_FEATURES
    assert pc_delta.control is ControlFlow.PC
    assert pc_delta.data is DataFlow.DELTA
    assert last4.control is ControlFlow.NONE
    assert last4.data is DataFlow.LAST4_DELTAS


def test_labels():
    assert FeatureSpec(ControlFlow.PC, DataFlow.DELTA).label == "pc+delta"
    assert FeatureSpec(ControlFlow.NONE, DataFlow.NONE).label == "none"
    assert FeatureSpec(ControlFlow.PC, DataFlow.NONE).label == "pc"


def test_first_access_to_page_has_delta_zero():
    """Fig 13's trigger: first load to a page has delta 0."""
    extractor = FeatureExtractor()
    obs = extractor.observe(ctx(0x436A81, 100, 17))
    assert obs.delta == 0


def test_delta_is_per_page():
    extractor = FeatureExtractor()
    extractor.observe(ctx(1, 100, 0))
    extractor.observe(ctx(1, 200, 50))  # different page: no cross-page delta
    obs = extractor.observe(ctx(1, 100, 23))
    assert obs.delta == 23


def test_last4_deltas_window():
    extractor = FeatureExtractor()
    offsets = [0, 2, 6, 12, 20, 30]
    obs = None
    for off in offsets:
        obs = extractor.observe(ctx(1, 100, off))
    assert obs.last4_deltas == (4, 6, 8, 10)
    assert obs.last4_offsets == (6, 12, 20, 30)


def test_pc_path_xors_history():
    extractor = FeatureExtractor()
    extractor.observe(ctx(0xA, 1, 0))
    extractor.observe(ctx(0xB, 1, 1))
    obs = extractor.observe(ctx(0xC, 1, 2))
    assert obs.pc_path == 0xA ^ 0xB ^ 0xC
    assert obs.pc_xor_prev == 0xC ^ 0xB


def test_page_table_lru_bound():
    extractor = FeatureExtractor(page_table_size=4)
    for page in range(10):
        extractor.observe(ctx(1, page, 0))
    assert len(extractor._pages) == 4


def test_encode_distinguishes_components():
    extractor = FeatureExtractor()
    obs = extractor.observe(ctx(0x1234, 7, 9))
    values = {spec.label: encode_feature(spec, obs) for spec in all_feature_specs()}
    assert values["pc"] == 0x1234
    assert values["offset"] == 9
    assert values["page"] == 7


def test_encode_none_none_is_zero():
    extractor = FeatureExtractor()
    obs = extractor.observe(ctx(1, 1, 1))
    assert encode_feature(FeatureSpec(ControlFlow.NONE, DataFlow.NONE), obs) == 0


def test_reset_clears_histories():
    extractor = FeatureExtractor()
    extractor.observe(ctx(1, 100, 0))
    extractor.reset()
    obs = extractor.observe(ctx(1, 100, 23))
    assert obs.delta == 0  # history gone: first access again


@given(
    pc=st.integers(min_value=1, max_value=2**32 - 1),
    page=st.integers(min_value=0, max_value=2**20),
    offset=st.integers(min_value=0, max_value=63),
)
def test_encoding_is_deterministic(pc, page, offset):
    e1 = FeatureExtractor()
    e2 = FeatureExtractor()
    obs1 = e1.observe(ctx(pc, page, offset))
    obs2 = e2.observe(ctx(pc, page, offset))
    for spec in all_feature_specs():
        assert encode_feature(spec, obs1) == encode_feature(spec, obs2)


@given(
    pc=st.integers(min_value=1, max_value=2**32 - 1),
    page=st.integers(min_value=0, max_value=2**20),
    offset=st.integers(min_value=0, max_value=63),
)
def test_encoded_values_are_32bit_nonnegative(pc, page, offset):
    extractor = FeatureExtractor()
    obs = extractor.observe(ctx(pc, page, offset))
    for spec in all_feature_specs():
        value = encode_feature(spec, obs)
        assert 0 <= value < 2**32


def test_page_index_rebuilt_from_the_lru_order():
    """The LRU order handed to the native kernel (``pt_order``) and back
    rebuilds the same page index, slot for slot and in order."""
    extractor = FeatureExtractor(page_table_size=8)
    for i in range(40):
        extractor.observe(ctx(1, (i * 7) % 13, i % 64))
    live = list(extractor.page_index().items())
    assert extractor.ptab_count == 8
    extractor.lru_order()
    extractor.drop_index()
    assert list(extractor.page_index().items()) == live
    obs = extractor.observe(ctx(1, live[-1][0], 5))
    assert obs.last4_offsets[-1] == 5
