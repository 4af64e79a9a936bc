"""Property tests locking down the programmable PIFO layer.

Three properties pinned here:

* **Work conservation** — whenever any packet is backlogged, exactly
  one is serviced that cycle; the set of service cycles is exactly the
  predicted busy-cycle set.
* **Tie-break stability under stream-id permutation** — for rank
  functions that do not read ``sid``, relabeling the streams permutes
  the service sequence exactly (arrival sequence numbers are globally
  unique, so the lexsort never reaches its final sid tie-break).
* **Three-way byte identity** — the interpreted reference evaluator,
  the tensorized evaluator on a single-row campaign and on whole
  same-shape buckets produce byte-identical canonical summaries on
  200+ randomized scenarios (the ``validate_rank_function``
  contract).

Plus the boundary validations the PIFO layer's tie-break rules must
reproduce: the RED min==max threshold and HFSC zero-curve leaves both
reject construction, exactly like non-positive/fractional PIFO
weights.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.differential import validate_rank_function
from repro.disciplines import create
from repro.disciplines.base import Packet, SwStream
from repro.disciplines.hfsc import ClassNode, HierarchicalFairShare
from repro.disciplines.pifo import (
    PIFO_RANK_FUNCTIONS,
    PifoDiscipline,
    PifoStream,
    RankFunction,
    attr,
    generate_pifo_scenario,
    rank_function,
    run_pifo,
    run_pifo_bucket,
)
from repro.disciplines.red import REDQueue
from tests.strategies import pifo_scenarios

#: Rank functions whose expression never reads ``sid`` — the ones for
#: which stream relabeling must be a pure permutation of the output.
_SID_FREE = tuple(
    name
    for name, fn in sorted(PIFO_RANK_FUNCTIONS.items())
    if "sid" not in fn.rank.attributes()
)


def _canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=1) + "\n"


class TestWorkConservation:
    @pytest.mark.parametrize("name", sorted(PIFO_RANK_FUNCTIONS))
    @pytest.mark.parametrize("engine", ["reference", "tensor"])
    def test_busy_cycles_exactly_serviced(self, name, engine):
        scenario = generate_pifo_scenario(5, n_cycles=80)
        summary = run_pifo(name, scenario, engine=engine)
        assert summary["enqueued"] == scenario.total_arrivals
        assert len(summary["services"]) == summary["enqueued"]
        # Predict the busy cycles from the arrival pattern alone.
        busy = []
        pending = 0
        t = 0
        while pending or t < scenario.n_cycles:
            if t < scenario.n_cycles:
                pending += len(scenario.arrivals[t])
            if pending:
                busy.append(t)
                pending -= 1
            t += 1
        assert [evt[0] for evt in summary["services"]] == busy

    @given(scenario=pifo_scenarios(n_cycles=60))
    @settings(max_examples=10, deadline=None, print_blob=True)
    def test_every_packet_serviced_once(self, scenario):
        summary = run_pifo("prio_edf", scenario, engine="tensor")
        seqs = sorted(evt[2] for evt in summary["services"])
        assert seqs == list(range(1, scenario.total_arrivals + 1))


def _permute(scenario, perm):
    """Relabel stream ids with ``perm`` (packets keep their seq)."""
    streams = tuple(
        sorted(
            (dataclasses.replace(s, sid=perm[s.sid]) for s in scenario.streams),
            key=lambda s: s.sid,
        )
    )
    arrivals = tuple(
        tuple(
            sorted(
                ((perm[sid], seq, dl, ln) for sid, seq, dl, ln in cycle),
            )
        )
        for cycle in scenario.arrivals
    )
    return dataclasses.replace(scenario, streams=streams, arrivals=arrivals)


class TestSidPermutationStability:
    @pytest.mark.parametrize("name", _SID_FREE)
    def test_relabeling_streams_permutes_services(self, name):
        """Globally-unique arrival sequence numbers resolve every rank
        tie before the sid comparator fires, so stream relabeling is
        invisible to the service order."""
        scenario = generate_pifo_scenario(17, n_cycles=80)
        n = scenario.n_slots
        perm = {sid: (sid * 3 + 1) % n for sid in range(n)}
        assert sorted(perm.values()) == list(range(n))
        base = run_pifo(name, scenario, engine="tensor")
        permuted = run_pifo(name, _permute(scenario, perm), engine="tensor")
        expected = [
            [t, perm[sid], seq, rank]
            for t, sid, seq, rank in base["services"]
        ]
        assert permuted["services"] == expected

    @given(
        scenario=pifo_scenarios(n_cycles=50),
        rot=st.integers(min_value=1, max_value=7),
        name=st.sampled_from(_SID_FREE),
    )
    @settings(max_examples=10, deadline=None, print_blob=True)
    def test_rotation_equivariance(self, scenario, rot, name):
        n = scenario.n_slots
        perm = {sid: (sid + rot) % n for sid in range(n)}
        base = run_pifo(name, scenario, engine="reference")
        permuted = run_pifo(
            name, _permute(scenario, perm), engine="reference"
        )
        assert permuted["services"] == [
            [t, perm[sid], seq, rank]
            for t, sid, seq, rank in base["services"]
        ]


class TestThreeWayByteIdentity:
    def test_two_hundred_scenarios_all_evaluators(self):
        """The acceptance campaign: >= 200 randomized scenarios, every
        registered rank function, reference == single-row tensor ==
        tensor bucket row byte-for-byte (the bucket leg runs whole
        same-shape buckets)."""
        names = sorted(PIFO_RANK_FUNCTIONS)
        seeds_per_fn = 42
        checked = 0
        for name in names:
            scenarios = [
                generate_pifo_scenario(seed, n_cycles=60)
                for seed in range(seeds_per_fn)
            ]
            tensor_summaries = run_pifo_bucket(name, scenarios)
            for scenario, tensor in zip(scenarios, tensor_summaries):
                reference = run_pifo(name, scenario, engine="reference")
                single = run_pifo(name, scenario, engine="tensor")
                context = f"pifo:{name} seed={scenario.seed}"
                assert _canonical(reference) == _canonical(single), context
                assert _canonical(reference) == _canonical(tensor), context
                checked += 1
        assert checked == len(names) * seeds_per_fn >= 200

    @pytest.mark.parametrize("name", sorted(PIFO_RANK_FUNCTIONS))
    def test_validate_rank_function_passes(self, name):
        result = validate_rank_function(name, seeds=range(8), n_cycles=100)
        assert result.passed, "\n".join(result.divergences)
        assert result.scenarios == 8
        assert result.services > 0
        assert result.equivalent_to == PIFO_RANK_FUNCTIONS[name].equivalent_to

    def test_validation_summary_is_canonical(self):
        result = validate_rank_function("edf", seeds=range(3), n_cycles=60)
        blob = result.summary_json()
        assert blob == json.dumps(
            result.summary(), sort_keys=True, indent=1
        ) + "\n"
        assert json.loads(blob)["passed"] is True


class TestUserDefinedRankFunction:
    def test_new_discipline_in_pifo_api_only(self):
        """The issue's headline claim: a brand-new discipline built
        from nothing but the PIFO expression API passes the two-way
        differential campaign.  Credit-based fair sharing: streams
        that have consumed more weighted service rank later."""
        credit_fair = RankFunction(
            name="credit_fair",
            rank=attr("credits") * 1500 // attr("weight"),
            description="least weighted service first",
        )
        result = validate_rank_function(
            credit_fair, seeds=range(6), n_cycles=80
        )
        assert result.passed, "\n".join(result.divergences)

    def test_registered_hybrid_is_thirty_lines_of_api(self):
        fn = rank_function("prio_edf")
        assert fn.equivalent_to is None
        result = validate_rank_function(fn, seeds=range(6), n_cycles=80)
        assert result.passed, "\n".join(result.divergences)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError, match="unknown rank attributes"):
            RankFunction(name="bad", rank=attr("jitter"))

    def test_unknown_vclock_rejected(self):
        with pytest.raises(ValueError, match="vclock"):
            RankFunction(name="bad", rank=attr("arrival"), vclock="wall")

    def test_non_integer_operand_rejected(self):
        with pytest.raises(TypeError, match="integer-only"):
            attr("deadline") * 0.5


class TestRegistryIntegration:
    def test_create_pifo_prefixed(self):
        discipline = create("pifo:sfq")
        assert isinstance(discipline, PifoDiscipline)
        assert discipline.name == "pifo:sfq"

    def test_unknown_rank_function(self):
        with pytest.raises(KeyError, match="unknown rank function"):
            create("pifo:nope")

    def test_software_pifo_orders_by_rank(self):
        discipline = create("pifo:edf")
        discipline.add_stream(SwStream(stream_id=0))
        discipline.add_stream(SwStream(stream_id=1))
        discipline.enqueue(
            Packet(stream_id=0, seq=1, arrival=1, deadline=9)
        )
        discipline.enqueue(
            Packet(stream_id=1, seq=2, arrival=2, deadline=4)
        )
        first = discipline.dequeue(0)
        second = discipline.dequeue(0)
        assert (first.stream_id, second.stream_id) == (1, 0)
        assert discipline.dequeue(0) is None


class TestBoundaryValidation:
    """Constructor-time rejections the PIFO tie-break rules mirror."""

    def test_red_min_equals_max_threshold_rejected(self):
        with pytest.raises(ValueError, match="min_th < max_th"):
            REDQueue(min_th=15, max_th=15)

    def test_red_zero_min_threshold_rejected(self):
        with pytest.raises(ValueError, match="0 < min_th"):
            REDQueue(min_th=0, max_th=15)

    def test_hfsc_zero_curve_leaf_rejected(self):
        with pytest.raises(ValueError, match="weight must be positive"):
            ClassNode(name="leaf", weight=0.0)

    def test_hfsc_zero_curve_class_rejected_through_tree(self):
        tree = HierarchicalFairShare()
        with pytest.raises(ValueError, match="weight must be positive"):
            tree.add_class("video", weight=0.0)

    def test_pifo_workload_zero_weight_rejected(self):
        scenario = generate_pifo_scenario(0, n_cycles=10)
        broken = dataclasses.replace(
            scenario,
            streams=(PifoStream(sid=0, weight=0),) + scenario.streams[1:],
        )
        with pytest.raises(ValueError, match="positive integer"):
            run_pifo("sfq", broken, engine="tensor")

    def test_pifo_discipline_fractional_weight_rejected(self):
        discipline = create("pifo:sfq")
        with pytest.raises(ValueError, match="integer weights"):
            discipline.add_stream(SwStream(stream_id=0, weight=0.5))
