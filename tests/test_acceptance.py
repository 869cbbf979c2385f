"""Acceptance battery.

One test per advertised guarantee, in order.  Each runs the matching oracle
suite at its full documented scale and prints a single verdict line; the
three bulk suites also assert their wall-clock budgets.  Every suite must
also make exactly the number of checks the README's suite table gives for
seed 0, so a change that keeps the verdicts but drops cases shows up.
"""

import time

from orderlab import suites

SEED = 0

# seed-0 ``checked`` counts, as in the README's suite table
CHECKED = {
    "claim-monotone": 7_386,
    "code-roundtrip": 8_880,
    "prefix-free": 30_348,
    "minimal-path": 2_000,
    "leftmost-exact": 276,
    "higman-agreement": 34_709_386,
    "kruskal-agreement": 163_592,
    "refine-step": 200,
    "array-step": 100,
    "singleton-bridge": 32_178,
    "star-law": 21,
    "tri-agreement": 40_229,
    "pair-homogeneous": 33_792,
    "path-system": 4_356,
    "wave-coding": 21_955,
    "cli-determinism": 26,
}


def _run(number, names, budget=None):
    start = time.perf_counter()
    results = [suites.SUITES[name](SEED) for name in names]
    elapsed = time.perf_counter() - start
    verdict = "PASS" if all(r.verdict == "pass" for r in results) else "FAIL"
    checked = sum(r.checked for r in results)
    label = "+".join(names)
    print(f"criterion {number} ({label}): {verdict} [{checked} checks, {elapsed:.1f}s]")
    for r in results:
        assert r.verdict == "pass", (r.name, r.failures[:2])
        assert r.checked == CHECKED[r.name], (r.name, r.checked)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s"


def test_criterion_01_encoding_claims_hold():
    _run(1, ["claim-monotone"], budget=30.0)


def test_criterion_02_encoding_roundtrips():
    _run(2, ["code-roundtrip"])


def test_criterion_03_minimal_paths_verified():
    _run(3, ["minimal-path"], budget=60.0)


def test_criterion_04_leftmost_matches_exhaustive():
    _run(4, ["leftmost-exact"])


def test_criterion_05_higman_matches_brute_force():
    _run(5, ["higman-agreement"])


def test_criterion_06_tree_embedding_matches_brute_force():
    _run(6, ["kruskal-agreement"])


def test_criterion_07_sequence_refinement_contract():
    _run(7, ["refine-step"])


def test_criterion_08_array_refinement_contract():
    _run(8, ["array-step"])


def test_criterion_09_singleton_arrays_match_sequences():
    _run(9, ["singleton-bridge"])


def test_criterion_10_fragment_star_and_tri():
    _run(10, ["star-law", "tri-agreement"])


def test_criterion_11_path_systems_optimal():
    _run(11, ["path-system"], budget=60.0)


def test_criterion_12_wave_coding_faithful():
    _run(12, ["wave-coding"])


def test_criterion_13_cli_deterministic():
    _run(13, ["cli-determinism"])


def test_criterion_14_element_codes_prefix_free():
    _run(14, ["prefix-free"])


def test_criterion_15_pair_homogeneity_matches_ramsey():
    _run(15, ["pair-homogeneous"])
