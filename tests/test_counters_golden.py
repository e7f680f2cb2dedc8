"""Golden operation counters: refactors must not change what the algorithms do.

Output tests (``test_algos_vs_naive``, ``test_property``) cannot see a
change to SAP's meaningful-object set ``M_0``: the reported top-k is
taken over ``C ∪ M_0 ∪ P_rear^k``, so promotions out of ``M_0`` are never
a correctness dependency. ``M_0``'s contents do move the candidate and
memory numbers of Tables 6–9, and the scan order moves ``examined``.
This test pins every counter of every algorithm, plus the SAP ablation
switches, on one small cell per dataset. The cell is one where UBSA
skips units and deep-scans k-units, so a change to either shows.

Not pinned: ``sap-enhanced`` with ``use_savl=False`` on TIMER. That
configuration raises ``KeyError`` in ``CandidateSet.merge_topk`` on this
cell: the UBSA deep scan runs on top of the exact skyband and promotes
the same object into ``C`` twice (no paper table uses it; see ROADMAP).
"""
import pytest

from repro.core.query import TopKQuery
from repro.streams.datasets import gen_stream
from repro.streams.runner import run_stream

Q = TopKQuery(n=600, k=10, s=2)
LENGTH = 2400
SEED = 7
OPTS = {"": {}, "nodelay": {"delay": False}, "nosavl": {"use_savl": False}}
FIELDS = (
    "insertions",
    "deletions",
    "examined",
    "rescans",
    "rescan_examined",
    "m_formations",
    "units_skipped",
    "partitions_sealed",
    "avg_candidates",
    "peak_candidates",
)

# (dataset, algorithm, ablation) -> FIELDS
GOLDEN = {
    ("STOCK", "kskyband", ""): (2400, 2350, 23525, 0, 0, 0, 0, 0, 50.25638179800222, 75),
    ("STOCK", "mintopk", ""): (2400, 2350, 25353, 0, 0, 0, 0, 0, 49.83129855715871, 73),
    ("STOCK", "sma", ""): (812, 693, 9478, 3, 90, 0, 0, 0, 19.647058823529413, 36),
    ("STOCK", "sap-equal", ""): (310, 280, 998, 0, 0, 0, 0, 31, 42.65704772475028, 59),
    ("STOCK", "sap-dynamic", ""): (146, 124, 1326, 0, 0, 2, 0, 14, 32.75804661487236, 46),
    ("STOCK", "sap-enhanced", ""): (146, 124, 1477, 0, 0, 2, 0, 14, 32.75804661487236, 46),
    ("STOCK", "sap-equal", "nodelay"): (412, 382, 3048, 0, 0, 31, 0, 31, 74.9511653718091, 119),
    ("STOCK", "sap-dynamic", "nodelay"): (273, 250, 3103, 0, 0, 14, 0, 14, 90.08435072142065, 141),
    ("STOCK", "sap-enhanced", "nodelay"): (273, 250, 3182, 0, 0, 14, 1, 14, 89.51831298557158, 141),
    ("STOCK", "sap-equal", "nosavl"): (310, 280, 998, 0, 0, 0, 0, 31, 42.65704772475028, 59),
    ("STOCK", "sap-dynamic", "nosavl"): (145, 123, 1638, 0, 0, 2, 0, 14, 32.735849056603776, 45),
    ("STOCK", "sap-enhanced", "nosavl"): (145, 123, 1789, 0, 0, 2, 0, 14, 32.735849056603776, 45),
    ("TRIP", "kskyband", ""): (2400, 2347, 23548, 0, 0, 0, 0, 0, 56.45504994450611, 95),
    ("TRIP", "mintopk", ""): (2400, 2348, 25363, 0, 0, 0, 0, 0, 55.84239733629301, 95),
    ("TRIP", "sma", ""): (710, 627, 8783, 1, 30, 0, 0, 0, 19.97447280799112, 28),
    ("TRIP", "sap-equal", ""): (310, 270, 974, 0, 0, 0, 0, 31, 41.14872364039956, 56),
    ("TRIP", "sap-dynamic", ""): (142, 120, 1443, 0, 0, 3, 0, 14, 30.469478357380687, 39),
    ("TRIP", "sap-enhanced", ""): (142, 120, 2045, 0, 0, 3, 2, 14, 30.469478357380687, 39),
    ("TRIP", "sap-equal", "nodelay"): (409, 369, 3021, 0, 0, 31, 0, 31, 73.85571587125416, 117),
    ("TRIP", "sap-dynamic", "nodelay"): (286, 264, 3070, 0, 0, 14, 0, 14, 87.40510543840178, 161),
    ("TRIP", "sap-enhanced", "nodelay"): (231, 209, 3453, 0, 0, 14, 4, 14, 70.86459489456159, 125),
    ("TRIP", "sap-equal", "nosavl"): (310, 270, 974, 0, 0, 0, 0, 31, 41.14872364039956, 56),
    ("TRIP", "sap-dynamic", "nosavl"): (141, 119, 1911, 0, 0, 3, 0, 14, 30.466148723640398, 39),
    ("TRIP", "sap-enhanced", "nosavl"): (142, 120, 2734, 0, 0, 3, 1, 14, 30.469478357380687, 39),
    ("PLANET", "kskyband", ""): (2400, 2359, 23535, 0, 0, 0, 0, 0, 48.770255271920085, 76),
    ("PLANET", "mintopk", ""): (2400, 2360, 25324, 0, 0, 0, 0, 0, 48.32297447280799, 76),
    ("PLANET", "sma", ""): (800, 692, 9212, 4, 120, 0, 0, 0, 16.74250832408435, 27),
    ("PLANET", "sap-equal", ""): (310, 289, 940, 0, 0, 0, 0, 31, 40.03995560488346, 59),
    ("PLANET", "sap-dynamic", ""): (143, 126, 1427, 0, 0, 3, 0, 14, 30.032186459489456, 42),
    ("PLANET", "sap-enhanced", ""): (143, 126, 1477, 0, 0, 3, 0, 14, 30.032186459489456, 42),
    ("PLANET", "sap-equal", "nodelay"): (424, 403, 2987, 0, 0, 31, 0, 31, 72.83129855715872, 117),
    ("PLANET", "sap-dynamic", "nodelay"): (254, 237, 3044, 0, 0, 14, 0, 14, 84.61154273029966, 133),
    ("PLANET", "sap-enhanced", "nodelay"): (254, 237, 3094, 0, 0, 14, 0, 14, 84.61154273029966, 133),
    ("PLANET", "sap-equal", "nosavl"): (310, 289, 940, 0, 0, 0, 0, 31, 40.03995560488346, 59),
    ("PLANET", "sap-dynamic", "nosavl"): (143, 126, 1895, 0, 0, 3, 0, 14, 30.01997780244173, 42),
    ("PLANET", "sap-enhanced", "nosavl"): (143, 126, 1945, 0, 0, 3, 0, 14, 30.01997780244173, 42),
    ("TIMEU", "kskyband", ""): (2400, 2354, 23572, 0, 0, 0, 0, 0, 49.21975582685904, 67),
    ("TIMEU", "mintopk", ""): (2400, 2354, 25362, 0, 0, 0, 0, 0, 48.75249722530522, 66),
    ("TIMEU", "sma", ""): (718, 653, 8970, 1, 30, 0, 0, 0, 20.206437291897892, 24),
    ("TIMEU", "sap-equal", ""): (310, 282, 918, 0, 0, 0, 0, 31, 40.84017758046615, 55),
    ("TIMEU", "sap-dynamic", ""): (150, 128, 1068, 0, 0, 0, 0, 15, 32.42952275249723, 41),
    ("TIMEU", "sap-enhanced", ""): (150, 128, 1169, 0, 0, 0, 0, 15, 32.42952275249723, 41),
    ("TIMEU", "sap-equal", "nodelay"): (394, 366, 2965, 0, 0, 31, 0, 31, 73.22641509433963, 110),
    ("TIMEU", "sap-dynamic", "nodelay"): (253, 231, 3185, 0, 0, 15, 0, 15, 86.96781354051055, 133),
    ("TIMEU", "sap-enhanced", "nodelay"): (253, 231, 3286, 0, 0, 15, 0, 15, 86.96781354051055, 133),
    ("TIMEU", "sap-equal", "nosavl"): (310, 282, 918, 0, 0, 0, 0, 31, 40.84017758046615, 55),
    ("TIMEU", "sap-dynamic", "nosavl"): (150, 128, 1068, 0, 0, 0, 0, 15, 32.42952275249723, 41),
    ("TIMEU", "sap-enhanced", "nosavl"): (150, 128, 1169, 0, 0, 0, 0, 15, 32.42952275249723, 41),
    ("TIMER", "kskyband", ""): (2400, 2155, 17862, 0, 0, 0, 0, 0, 211.52941176470588, 495),
    ("TIMER", "mintopk", ""): (2400, 2155, 19968, 0, 0, 0, 0, 0, 211.37402885682576, 494),
    ("TIMER", "sma", ""): (1674, 993, 8642, 16, 480, 0, 0, 0, 86.34739178690344, 195),
    ("TIMER", "sap-equal", ""): (668, 638, 1493, 0, 0, 7, 0, 31, 52.802441731409544, 144),
    ("TIMER", "sap-dynamic", ""): (541, 531, 1534, 0, 0, 4, 0, 14, 49.74694783573807, 184),
    ("TIMER", "sap-enhanced", ""): (541, 531, 3378, 0, 0, 4, 0, 14, 50.22197558268591, 184),
    ("TIMER", "sap-equal", "nodelay"): (716, 686, 3077, 0, 0, 31, 0, 31, 67.95449500554939, 146),
    ("TIMER", "sap-dynamic", "nodelay"): (745, 735, 3014, 0, 0, 14, 0, 14, 71.38956714761376, 186),
    ("TIMER", "sap-enhanced", "nodelay"): (697, 687, 4634, 0, 0, 14, 2, 14, 62.37735849056604, 184),
    ("TIMER", "sap-equal", "nosavl"): (668, 638, 2025, 0, 0, 7, 0, 31, 52.5149833518313, 144),
    ("TIMER", "sap-dynamic", "nosavl"): (541, 531, 2158, 0, 0, 4, 0, 14, 48.83573806881243, 184),
}


@pytest.mark.parametrize("ds", sorted({ds for ds, _, _ in GOLDEN}))
def test_counters_match_golden(ds):
    scores = gen_stream(ds, LENGTH, seed=SEED)
    for (d, algo, ablation), want in GOLDEN.items():
        if d != ds:
            continue
        m = run_stream(
            algo, scores, Q, collect_results=False, **OPTS[ablation]
        ).metrics
        got = tuple(getattr(m, f) for f in FIELDS)
        assert got == want, (algo, ablation, dict(zip(FIELDS, got)))
