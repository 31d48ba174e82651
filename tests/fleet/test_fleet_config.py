"""Tenant admission: spec/config validation, batches and shard assignment.

:class:`~repro.fleet.config.TenantSpec` and
:class:`~repro.fleet.config.FleetConfig` reject malformed parameters at
construction time (not at run time, three shards deep), and
:func:`~repro.fleet.config.synthetic_fleet` produces deterministic,
uniquely-named tenant batches.  :func:`~repro.fleet.engine.shard_of` is a
stable content hash: the partition may never depend on batch order,
interpreter hash randomization or shard-pool scheduling.
"""

import pytest

from repro.fleet import (
    BACKPRESSURE_POLICIES,
    FleetConfig,
    TenantSpec,
    describe_backpressure,
    shard_of,
    synthetic_fleet,
)


class TestTenantSpecValidation:
    def test_defaults_are_valid(self):
        spec = TenantSpec(tenant_id="t")
        assert spec.property_name == "B"

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"tenant_id": ""}, "non-empty"),
            ({"property_name": "Z"}, "unknown case-study property"),
            ({"num_processes": 1}, "at least two processes"),
            ({"events_per_process": 0}, "must be positive"),
            ({"max_views_per_state": 0}, "at least 1"),
        ],
    )
    def test_rejects_malformed_parameters(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TenantSpec(**{"tenant_id": "t", **kwargs})


class TestFleetConfigValidation:
    def test_defaults_are_valid(self):
        config = FleetConfig(tenants=(TenantSpec(tenant_id="t"),))
        assert config.backpressure == "block"
        assert config.inbox_limit == 1024

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"tenants": ()}, "at least one tenant"),
            ({"shards": 0}, "shards must be positive"),
            ({"max_tenants": -1}, "non-negative"),
            ({"inbox_limit": 0}, "inbox_limit must be positive"),
            ({"backpressure": "drop-oldest"}, "unknown backpressure policy"),
            ({"quiesce_timeout": 0.0}, "quiesce_timeout must be positive"),
            ({"quiesce_timeout": float("nan")}, "quiesce_timeout must be positive"),
        ],
    )
    def test_rejects_malformed_parameters(self, kwargs, match):
        defaults = {"tenants": (TenantSpec(tenant_id="t"),)}
        with pytest.raises(ValueError, match=match):
            FleetConfig(**{**defaults, **kwargs})

    def test_rejects_duplicate_tenant_ids(self):
        with pytest.raises(ValueError, match="duplicate tenant id 'twin'"):
            FleetConfig(
                tenants=(TenantSpec(tenant_id="twin"), TenantSpec(tenant_id="twin"))
            )

    def test_policy_catalogue_matches_the_registry(self):
        assert tuple(p["name"] for p in describe_backpressure()) == (
            BACKPRESSURE_POLICIES
        )


class TestSyntheticFleet:
    def test_batches_are_deterministic(self):
        assert synthetic_fleet(6) == synthetic_fleet(6)

    def test_ids_unique_and_seeds_strided(self):
        tenants = synthetic_fleet(8, base_seed=100)
        assert len({t.tenant_id for t in tenants}) == 8
        assert [t.seed for t in tenants] == [100 + 31 * i for i in range(8)]

    def test_properties_round_robin(self):
        tenants = synthetic_fleet(8, properties=("A", "B", "C"))
        assert [t.property_name for t in tenants] == list("ABCABCAB")

    def test_any_slice_reproducible_in_isolation(self):
        assert synthetic_fleet(10)[3] == synthetic_fleet(4)[3]

    @pytest.mark.parametrize(
        ("args", "kwargs", "match"),
        [
            ((0,), {}, "num_tenants must be positive"),
            ((3,), {"properties": ()}, "at least one property"),
        ],
    )
    def test_rejects_empty_batch(self, args, kwargs, match):
        with pytest.raises(ValueError, match=match):
            synthetic_fleet(*args, **kwargs)


class TestShardAssignment:
    def test_one_shard_takes_everything(self):
        assert {shard_of(f"tenant-{i:04d}", 1) for i in range(50)} == {0}

    def test_assignment_is_a_pinned_content_hash(self):
        # CRC-32 of the id, mod shards — pinned so recorded fleet layouts
        # (and cross-run comparisons) never silently repartition
        assert shard_of("tenant-0000", 4) == 2
        assert shard_of("tenant-0001", 4) == 0
        assert shard_of("alpha", 3) == 1
        assert shard_of("beta", 3) == 1

    def test_assignment_independent_of_batch(self):
        lone = shard_of("tenant-0007", 5)
        assert all(shard_of("tenant-0007", 5) == lone for _ in range(3))
        assert 0 <= lone < 5
