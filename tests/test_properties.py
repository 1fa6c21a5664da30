"""Property-based tests (hypothesis) for core data structures and invariants."""

import dataclasses
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compiler.minic import compile_source
from repro.core import StoppingRule
from repro.fidelity import percent_matching, psnr, signal_to_noise_db
from repro.isa import (
    INT_BITS,
    bits_to_int,
    flip_float_bit,
    flip_int_bit,
    int_to_bits,
    wrap_int,
)
from repro.apps import APP_ORDER, SUITES
from repro.service.spec import SPEC_MODES, CampaignSpec, canonical_json
from repro.sim import Machine, Outcome
from repro.workloads import bytes_to_words, words_to_bytes

int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
any_int = st.integers(min_value=-(2**40), max_value=2**40)


class TestEncodingProperties:
    @given(any_int)
    def test_wrap_int_is_idempotent(self, value):
        assert wrap_int(wrap_int(value)) == wrap_int(value)

    @given(int32)
    def test_wrap_int_is_identity_on_int32(self, value):
        assert wrap_int(value) == value

    @given(int32)
    def test_int_bits_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value)) == value

    @given(int32, st.integers(min_value=0, max_value=INT_BITS - 1))
    def test_int_bit_flip_is_involution_and_changes_value(self, value, bit):
        flipped = flip_int_bit(value, bit)
        assert flipped != value
        assert flip_int_bit(flipped, bit) == value

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.integers(min_value=0, max_value=63))
    def test_float_bit_flip_is_involution(self, value, bit):
        flipped = flip_float_bit(value, bit)
        restored = flip_float_bit(flipped, bit)
        assert restored == value or (math.isnan(restored) and math.isnan(value))


class TestFidelityProperties:
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=64))
    def test_psnr_of_identical_images_is_max(self, pixels):
        assert psnr(pixels, pixels) == 100.0

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=64),
           st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=64))
    def test_psnr_is_bounded(self, a, b):
        size = min(len(a), len(b))
        value = psnr(a[:size], b[:size])
        assert 0.0 <= value <= 100.0

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=64))
    def test_snr_upper_bound(self, signal):
        assert signal_to_noise_db(signal, signal) <= 100.0

    @given(st.lists(st.integers(), max_size=64), st.lists(st.integers(), max_size=64))
    def test_percent_matching_bounds(self, a, b):
        value = percent_matching(a, b)
        assert 0.0 <= value <= 100.0

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=128))
    def test_word_packing_roundtrip(self, data):
        assert words_to_bytes(bytes_to_words(data), len(data)) == data


class TestCompilerExecutionProperties:
    """The compiled + simulated program must agree with Python semantics."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=-1000, max_value=1000),
           st.integers(min_value=-1000, max_value=1000),
           st.integers(min_value=1, max_value=50))
    def test_integer_expression_matches_python(self, a, b, c):
        source = f"""
        int main() {{
            int a = {a};
            int b = {b};
            int c = {c};
            return (a * 3 - b) % c + (a & 255) - (b >> 2);
        }}
        """
        program = compile_source(source)
        result = Machine(program).run()
        assert result.outcome == Outcome.COMPLETED
        expected = wrap_int((a * 3 - b) - int((a * 3 - b) / c) * c
                            + (a & 255) - (b >> 2))
        assert result.exit_value == expected

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=-500, max_value=500), min_size=1, max_size=24))
    def test_array_sum_matches_python(self, values):
        source = """
        int data[32];
        int main() {
            int total = 0;
            for (int i = 0; i < %d; i = i + 1) { total = total + data[i]; }
            return total;
        }
        """ % len(values)
        program = compile_source(source)
        machine = Machine(program)
        machine.write_global("data", values)
        result = machine.run()
        assert result.exit_value == sum(values)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=12))
    def test_loop_count_matches_python(self, n):
        source = f"""
        int main() {{
            int count = 0;
            for (int i = 0; i < {n}; i = i + 1) {{
                for (int j = 0; j <= i; j = j + 1) {{ count = count + 1; }}
            }}
            return count;
        }}
        """
        result = Machine(compile_source(source)).run()
        assert result.exit_value == n * (n + 1) // 2


# ----------------------------------------------------------------------
# CampaignSpec: the service codec and content-addressing invariants.
# ----------------------------------------------------------------------
_SPEC_FIELDS = {field.name: field.default
                for field in dataclasses.fields(CampaignSpec)}

stopping_rules = st.integers(min_value=1, max_value=8).flatmap(
    lambda floor: st.builds(
        StoppingRule,
        ci_width=st.floats(min_value=0.5, max_value=50.0),
        floor=st.just(floor),
        cap=st.integers(min_value=floor, max_value=floor + 32),
        confidence=st.floats(min_value=0.5, max_value=0.99),
    ))

mode_tuples = st.sampled_from([("protected",), ("unprotected",), SPEC_MODES])

app_tuples = st.lists(st.sampled_from(APP_ORDER),
                      min_size=1, max_size=4, unique=True).map(tuple)

error_tuples = st.lists(st.integers(min_value=0, max_value=16),
                        min_size=1, max_size=5, unique=True).map(tuple)

campaign_specs = st.builds(
    CampaignSpec,
    suite=st.sampled_from(sorted(SUITES)),
    runs_per_cell=st.integers(min_value=1, max_value=64),
    base_seed=st.integers(min_value=0, max_value=2**31 - 1),
    workloads=st.integers(min_value=1, max_value=4),
    model=st.sampled_from(("control-bit", "any-bit", "register-file")),
    stopping=st.none() | stopping_rules,
    apps=st.none() | app_tuples,
    modes=mode_tuples,
    errors=st.none() | error_tuples,
    include_table2=st.booleans(),
)


class TestCampaignSpecProperties:
    """Randomized checks of the codec the whole service layer trusts."""

    @given(campaign_specs)
    def test_canonical_roundtrip_is_identity(self, spec):
        # HTTP body -> spec -> HTTP body must be a fixed point: the
        # daemon and every client hash this encoding.
        again = CampaignSpec.from_json(json.loads(spec.canonical()))
        assert again == spec
        assert again.canonical() == spec.canonical()
        assert again.cache_key == spec.cache_key
        assert again.store_key == spec.store_key

    @given(campaign_specs,
           st.text(alphabet="abcdefghijklmnopqrstuvwxyz_",
                   min_size=1, max_size=16))
    def test_unknown_keys_are_refused_not_dropped(self, spec, name):
        assume(name not in _SPEC_FIELDS)
        data = spec.to_json()
        data[name] = 1
        with pytest.raises(ValueError, match="unknown campaign spec"):
            CampaignSpec.from_json(data)

    @given(campaign_specs, st.data())
    def test_explicit_defaults_never_change_identity(self, spec, data):
        # Default eliding means a spec spelled with any subset of its
        # elided defaults written out explicitly must decode to the very
        # same spec — same job key, same store key, byte-equal meta pin.
        encoded = spec.to_json()
        elided = sorted(name for name in _SPEC_FIELDS
                        if name not in encoded)
        chosen = data.draw(st.lists(st.sampled_from(elided), unique=True)
                           if elided else st.just([]))
        augmented = dict(encoded)
        for name in chosen:
            if name == "runs_per_cell" and spec.stopping is not None:
                continue  # pinned under adaptive sampling, never encoded
            value = _SPEC_FIELDS[name]
            augmented[name] = (list(value) if isinstance(value, tuple)
                               else value)
        again = CampaignSpec.from_json(augmented)
        assert again == spec
        assert again.cache_key == spec.cache_key
        assert canonical_json(again.store_meta()) \
            == canonical_json(spec.store_meta())

    @given(campaign_specs, st.data())
    def test_coverage_never_changes_store_identity(self, spec, data):
        # The content-addressing invariant the shared stores rely on:
        # coverage parameters select cells but may not move the store.
        other = dataclasses.replace(
            spec,
            apps=data.draw(st.none() | app_tuples),
            modes=data.draw(mode_tuples),
            errors=data.draw(st.none() | error_tuples),
            include_table2=data.draw(st.booleans()),
        )
        assert other.store_key == spec.store_key
        assert canonical_json(other.store_meta()) \
            == canonical_json(spec.store_meta())

    @given(campaign_specs, st.data())
    def test_content_changes_move_both_keys(self, spec, data):
        # And the converse: any content edit moves the store (and hence
        # the job) somewhere else entirely.
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        assume(seed != spec.base_seed)
        other = dataclasses.replace(spec, base_seed=seed)
        assert other.store_key != spec.store_key
        assert other.cache_key != spec.cache_key
