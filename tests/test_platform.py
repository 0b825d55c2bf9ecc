import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemblekit.errors import (
    InvalidNodeSpec,
    ParseError,
    PolicyGap,
    Unplaceable,
    ValidationError,
)
from ensemblekit.platform import (
    NodeSpec,
    PlatformConfig,
    WalltimePolicy,
    get_profile,
    load_platform_config,
    max_walltime_for,
    platform_from_json,
    save_platform_config,
    task_footprint,
    usable_cores,
)
from conftest import exaconstit_task, make_task


class TestNodeSpec:
    def test_frontier_node_usable_cores(self):
        assert usable_cores(NodeSpec(64, 8)) == 56

    def test_no_reservation(self):
        assert usable_cores(NodeSpec(8, 0)) == 8

    def test_all_reserved_is_invalid(self):
        with pytest.raises(InvalidNodeSpec):
            NodeSpec(8, 8)

    def test_negative_fields_invalid(self):
        with pytest.raises(InvalidNodeSpec):
            NodeSpec(8, -1)
        with pytest.raises(InvalidNodeSpec):
            NodeSpec(8, 0, gpus=-2)


class TestFootprint:
    def test_exaconstit_member(self):
        # 64 ranks at 7 cores + 1 GPU: 8 per node, 8 nodes
        nodes, per_node = task_footprint(exaconstit_task("m"), NodeSpec(64, 8, 8))
        assert (nodes, per_node) == (8, 8)

    def test_additivefoam_case(self):
        # 224 single-core ranks: 56 per node over 4 nodes
        desc = make_task("af", procs=224)
        assert task_footprint(desc, NodeSpec(64, 8, 8)) == (4, 56)

    def test_single_process(self):
        assert task_footprint(make_task("t"), NodeSpec(8, 0)) == (1, 1)

    def test_gpu_bottleneck(self):
        desc = make_task("g", procs=16, threads=1, gpus=2)
        # cores allow 56/node but GPUs allow only 4
        assert task_footprint(desc, NodeSpec(64, 8, 8)) == (4, 4)

    def test_oversized_process_unplaceable(self):
        with pytest.raises(Unplaceable):
            task_footprint(make_task("big", threads=57), NodeSpec(64, 8, 8))
        with pytest.raises(Unplaceable):
            task_footprint(make_task("gpus", gpus=9), NodeSpec(64, 8, 8))

    @given(
        procs=st.integers(min_value=1, max_value=500),
        threads=st.integers(min_value=1, max_value=8),
        gpus_pp=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_tight_ceiling(self, procs, threads, gpus_pp):
        node = NodeSpec(64, 8, 8)
        desc = make_task("t", procs=procs, threads=threads, gpus=gpus_pp)
        try:
            nodes, per_node = task_footprint(desc, node)
        except Unplaceable:
            assert threads > 56 or gpus_pp > 8
            return
        assert nodes * per_node >= procs
        assert (nodes - 1) * per_node < procs
        assert per_node * threads <= usable_cores(node)
        assert per_node * gpus_pp <= node.gpus


class TestWalltimePolicy:
    POLICY = WalltimePolicy(tiers=((100, 7200.0), (8000, 43200.0)))

    def test_lookup_first_covering_tier(self):
        assert max_walltime_for(self.POLICY, 40) == 7200.0

    def test_last_tier_covers_full_request(self):
        assert max_walltime_for(self.POLICY, 8000) == 43200.0

    def test_gap_beyond_table(self):
        with pytest.raises(PolicyGap):
            max_walltime_for(self.POLICY, 9000)

    def test_tiers_must_increase(self):
        with pytest.raises(ValidationError):
            WalltimePolicy(tiers=((100, 7200.0), (100, 43200.0)))


class TestProfiles:
    def test_frontier_sim_shape(self):
        profile = get_profile("frontier-sim")
        assert usable_cores(profile.node) == 56
        assert profile.node.gpus == 8
        assert profile.bootstrap_overhead_s == 85.0
        # the 8000-node allocation: 448,000 usable cores and 64,000 GPUs
        assert 8000 * usable_cores(profile.node) == 448_000
        assert 8000 * profile.node.gpus == 64_000
        assert profile.node_count >= 8000

    def test_local_profile_host_shaped(self):
        profile = get_profile("local")
        assert profile.node_count == 1
        assert profile.bootstrap_overhead_s == 0.0

    def test_unknown_profile(self):
        with pytest.raises(ValidationError):
            get_profile("no-such-machine")

    def test_profile_dir_env(self, tmp_path, monkeypatch):
        config = get_profile("frontier-sim")
        save_platform_config(config, tmp_path / "mymachine.json")
        monkeypatch.setenv("ENSEMBLEKIT_PROFILE_DIR", str(tmp_path))
        loaded = get_profile("mymachine")
        assert loaded.node == config.node


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        config = get_profile("frontier-sim")
        path = tmp_path / "p.json"
        save_platform_config(config, path)
        assert load_platform_config(path) == config

    def test_degenerate_reservation_rejected(self, tmp_path):
        doc = get_profile("frontier-sim").to_json()
        doc["node"]["cores_reserved"] = doc["node"]["cores_total"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            load_platform_config(path)
        assert "cores_reserved" in str(err.value)
        # every violation is named in the one error
        doc["node"].update(cores_reserved=-1, gpus=-2)
        with pytest.raises(ValidationError) as err:
            platform_from_json(doc)
        assert "cores_reserved must be >= 0" in str(err.value)
        assert "gpus must be >= 0" in str(err.value)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "node": }\n')
        with pytest.raises(ParseError) as err:
            load_platform_config(path)
        assert ":2:" in str(err.value)

    def test_missing_sections_are_validation_errors(self):
        with pytest.raises(ValidationError):
            platform_from_json({"name": "x"})

    def test_nonpositive_node_count(self):
        with pytest.raises(ValidationError):
            PlatformConfig(
                name="x",
                node=NodeSpec(8, 0),
                node_count=0,
                policy=WalltimePolicy(tiers=((1, 60.0),)),
            )
