"""Tests for the mechanism registry."""

from __future__ import annotations

import pytest

from repro.clocks import (
    DVVMechanism,
    PrunedClientVVMechanism,
    available,
    create,
    register,
)
from repro.core import ConfigurationError


class TestRegistry:
    def test_default_mechanisms_present(self):
        names = available()
        for expected in ("dvv", "dvvset", "server_vv", "client_vv", "causal_history",
                         "dotted_vve", "client_vv_pruned_5"):
            assert expected in names

    def test_create_returns_fresh_instances(self):
        first = create("dvv")
        second = create("dvv")
        assert isinstance(first, DVVMechanism)
        assert first is not second

    def test_create_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            create("definitely-not-a-mechanism")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            register("dvv", DVVMechanism)

    def test_register_overwrite_allowed_explicitly(self):
        register("dvv", DVVMechanism, overwrite=True)
        assert isinstance(create("dvv"), DVVMechanism)

    def test_register_custom_mechanism(self):
        class Custom(DVVMechanism):
            name = "custom_dvv"

        register("custom_dvv_test", Custom, overwrite=True)
        assert isinstance(create("custom_dvv_test"), Custom)

    def test_pruned_factory_threshold(self):
        mechanism = PrunedClientVVMechanism(9)
        assert "9" in mechanism.name
        assert mechanism.max_entries == 9

    def test_pruned_registry_entries_use_distinct_thresholds(self):
        for bound in (5, 10, 20):
            mechanism = create(f"client_vv_pruned_{bound}")
            assert mechanism.max_entries == bound
            # Reports and BENCH_hot_key.json key on this name.
            assert mechanism.name == f"client_vv[size<={bound}]"
