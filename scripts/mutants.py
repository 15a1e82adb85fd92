#!/usr/bin/env python3
"""Mutation check: each row plants one fault in a copy of the checkout, and its tests must fail.

A row is (name, file, old text, new text, pytest node ids). The old text must occur exactly
once in the file. Every node id is first run once on an unmutated copy, and that run must
pass. Then each row runs on its own copy of ``src/``, ``tests/`` and ``scripts/``, with that
copy's ``src`` first on PYTHONPATH, so ``conftest.ROOT`` and every child interpreter import the
mutant. Each node id of a row runs in its own pytest call, and every one of them must fail or
time out. A row with a node id that still passes is a surviving mutant (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 1978): that test does not see the fault.

Standard library only (pytest runs in the child processes), no options: ``python scripts/mutants.py``
prints one line per row and exits 1 on a survivor, on an old text that does not occur exactly once,
and on a node id that collects nothing (pytest fails the unmutated run then).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts")
TIMEOUT = 240  # seconds for one pytest run; a mutant that hangs its tests past it counts as killed

ROWS = [
    # canon
    ("_runs: two equal ids as two runs", "src/treesym/canon.py",
     "if len(key) == 2 and key[0] != key[1]:", "if len(key) == 2:",
     ["tests/test_canon.py::test_analysis_matches_reference_all_small_trees"]),
    ("TreeAnalysis.of: two children ordered backwards", "src/treesym/canon.py",
     "if kb < ka:", "if kb > ka:",
     ["tests/test_canon.py::test_analysis_matches_reference_all_small_trees"]),
    ("_center_runs: isomorphic halves as two runs", "src/treesym/canon.py",
     "((an.ids[an.roots[0]], 2),) if an.iso_halves",
     "((an.ids[an.roots[0]], 1), (an.ids[an.roots[1]], 1)) if an.iso_halves",
     ["tests/test_center_rule.py::test_center_rule_matches_reference_on_all_small_trees"]),
    ("_at_root: the chain power off by one", "src/treesym/canon.py",
     "acc *= product(vals, ()) ** chain", "acc *= product(vals, ()) ** (chain + 1)",
     ["tests/test_census.py::test_census_identities_over_every_free_tree",
      "tests/test_rerooting.py::test_rooted_numbers_match_reference_up_to_11"]),
    ("_at_root: the pointers made again at every chain step", "src/treesym/canon.py",
     "if tops is None:", "if True:",
     ["tests/test_rerooting.py::test_rooted_loop_climbs_each_vertex_once"]),
    ("_chain_pointers: the step count off by one", "src/treesym/canon.py",
     "steps[p] + 1", "steps[p]",
     ["tests/test_rerooting.py::test_rooted_walk_matches_every_root_on_chains_in_any_order"]),
    ("_chain_pointers: pointers to the parent, not the top of its run", "src/treesym/canon.py",
     "= tops[p], steps[p]", "= p, steps[p]",
     ["tests/test_rerooting.py::test_chain_pointers_name_the_top_of_each_run"]),
    ("_chain_pointers: a center end does not stop a run", "src/treesym/canon.py",
     "if x not in roots and len(children[p := parent[x]]) == 1:", "if len(children[p := parent[x]]) == 1:",
     ["tests/test_rerooting.py::test_rooted_walk_matches_every_root_on_chains_in_any_order",
      "tests/test_rerooting.py::test_rooted_loop_climbs_each_vertex_once"]),
    ("_toward_center: an edge center's halves swapped", "src/treesym/canon.py",
     "b[u], b[v] = vals[ids[v]], vals[ids[u]]", "b[u], b[v] = vals[ids[u]], vals[ids[v]]",
     ["tests/test_rerooting.py::test_a_at_every_root_matches_rooted_small"]),
    ("_toward_center: no branch dropped", "src/treesym/canon.py",
     "value = b[p] * product(vals, sigs[ids[p]], k)", "value = b[p] * product(vals, sigs[ids[p]])",
     ["tests/test_rerooting.py::test_a_at_every_root_matches_rooted_small"]),
    ("_toward_center: one product per child, not per run of twins", "src/treesym/canon.py",
     "if ids[x] != k:", "if True:",
     ["tests/test_rerooting.py::test_star_costs_one_product_per_distinct_class"]),
    ("at_center: the analysis not kept", "src/treesym/canon.py",
     'object.__setattr__(t, "_center_analysis", an)', "pass",
     ["tests/test_canon.py::test_public_functions_share_one_center_analysis",
      "tests/test_rerooting.py::test_rooted_numbers_reuse_the_center_analysis",
      "tests/test_rerooting.py::test_all_roots_callers_root_the_tree_once[path]",
      "tests/test_rerooting.py::test_all_roots_callers_root_the_tree_once[spider]"]),
    # asym
    ("_a_product: drop ignored", "src/treesym/asym.py",
     "        mu -= k == drop\n        acc *= a[k]", "        acc *= a[k]",
     ["tests/test_census.py::test_census_identities_over_every_free_tree",
      "tests/test_rerooting.py::test_rooted_numbers_match_reference_up_to_11"]),
    ("_a_product: C(a + 1, mu) for a twin run", "src/treesym/asym.py",
     "comb(a[k], mu)  # C(a, 1) = a", "comb(a[k] + 1, mu)  # C(a, 1) = a",
     ["tests/test_asym.py::test_oracle_equivalence_exhaustive_small"]),
    ("a_by_class: values kept past the budget", "src/treesym/asym.py",
     "<= 64 * an.rt.tree.n:", "<= 64 * an.rt.tree.n or True:",
     ["tests/test_canon.py::test_a_values_of_a_long_path_are_not_kept"]),
    ("conjecture_check: values capped at 1", "src/treesym/corpus.py",
     "cap = t.delta + 1", "cap = 1",
     ["tests/test_rerooting.py::test_conjecture_scan_reads_a_of_t_w"]),
    ("conjecture_check: exact class values", "src/treesym/corpus.py",
     "a.append(min(_a_product(a, sig), cap))", "a.append(_a_product(a, sig))",
     ["tests/test_rerooting.py::test_conjecture_check_memory_on_a_long_path"]),
    # autom
    ("_aut_product: mu for mu!", "src/treesym/autom.py",
     "factorial(mu) * vals[k] ** mu", "mu * vals[k] ** mu",
     ["tests/test_autom.py::test_exhaustive_oracle_equivalence_small"]),
    ("_aut_product: drop ignored", "src/treesym/autom.py",
     "        mu -= k == drop\n        acc *= vals[k]", "        acc *= vals[k]",
     ["tests/test_autom.py::test_exhaustive_oracle_equivalence_small"]),
    ("motion_of: only runs of three or more", "src/treesym/autom.py",
     "if mu >= 2]", "if mu >= 3]",
     ["tests/test_autom.py::test_exhaustive_oracle_equivalence_small"]),
    ("_automorphisms: leaves of different parents in one level", "src/treesym/autom.py",
     "if deg[u] == deg[v] == 1 and par[u] == par[v] and", "if deg[u] == deg[v] == 1 and",
     ["tests/test_autom.py::test_exhaustive_oracle_equivalence_small"]),
    ("_automorphisms: back edges unchecked", "src/treesym/autom.py",
     "        if back[v]:\n", "        if back[v] and False:\n",
     ["tests/test_oracle.py::test_backtracker_matches_reference_on_seeded_graphs_in_order"]),
    ("_automorphisms: forced images ignored", "src/treesym/autom.py",
     "out = [y for y in out if y == want[v]]", "out = [y for y in out if y == want[v] or not used[y]]",
     ["tests/test_oracle.py::test_backtracker_matches_reference_on_seeded_graphs_in_order"]),
    ("AutomorphismLimitExceeded: the limit attribute off by one", "src/treesym/autom.py",
     "self.limit = limit", "self.limit = limit + 1",
     ["tests/test_treelike.py::test_distinguish_past_the_limit_raises",
      "tests/test_treelike.py::test_distinguish_drains_the_search_past_a_lowered_limit"]),
    # oracle
    ("_refuse_past: refuses at exactly the limit", "src/treesym/oracle.py",
     "prod(map(factorial, leaves.values())) <= limit", "prod(map(factorial, leaves.values())) < limit",
     ["tests/test_oracle.py::test_automorphism_limit_is_an_oracle_size_error"]),
    ("brute_asym: fixed test on the whole coloring", "src/treesym/oracle.py",
     "if image == (part := mask & support):", "if image == (part := mask):",
     ["tests/test_oracle.py::test_oracle_matches_reference_on_all_small_trees_at_every_pin"]),
    ("brute_asym: lower test on the whole coloring", "src/treesym/oracle.py",
     "below = below or image < part", "below = below or image < mask",
     ["tests/test_oracle.py::test_oracle_matches_reference_on_all_small_trees_at_every_pin"]),
    # coloring
    ("_unrank_down: the first twin pair left unfilled at index 0", "src/treesym/coloring.py",
     "for p in range(1, len(kids)):", "for p in range(2, len(kids)):",
     ["tests/test_coloring.py::test_unrank_meets_every_orbit_small"]),
    ("unrank_of: roots before center digits, so zip drops a root", "src/treesym/coloring.py",
     "for s, r in zip(combinadic_unrank(digit, a[c], mu), roots):",
     "for r, s in zip(roots, combinadic_unrank(digit, a[c], mu)):",
     ["tests/test_coloring.py::test_unrank_unrooted_meets_every_orbit_small"]),
    ("combinadic_unrank: k = 2 top element one too high", "src/treesym/coloring.py",
     "c = (1 + isqrt(8 * rank + 1)) // 2", "c = (2 + isqrt(8 * rank + 1)) // 2",
     ["tests/test_coloring.py::test_combinadic_k2_every_rank_matches_reference"]),
    ("combinadic_unrank: window one short", "src/treesym/coloring.py",
     "min(r + i - 1, hi)", "min(r + i - 2, hi)",
     ["tests/test_coloring.py::test_combinadic_k3_to_12_matches_reference"]),
    ("_iroot: Newton started below the root", "src/treesym/coloring.py",
     "y = (_iroot(x >> k * s, k) + 1) << s if s", "y = _iroot(x >> k * s, k) << s if s",
     ["tests/test_coloring.py::test_combinadic_seeded_ranks_match_reference"]),
    ("_colored_ids: one collision among three or more children missed", "src/treesym/coloring.py",
     "if len(set(key)) < len(key):", "if len(set(key)) < len(key) - 1:",
     ["tests/test_coloring.py::test_distinguishes_matches_reference_at_every_root_small"]),
    ("_colored_key: equal halves distinguish", "src/treesym/coloring.py",
     "    if a == b:\n        return None\n    return (a, b)", "    return (a, b)",
     ["tests/test_coloring.py::test_distinguishes_matches_reference_at_every_root_small"]),
    ("verify_distinguishing: a pin colored black", "src/treesym/coloring.py",
     'f"{colors[:pinned]}2{colors[pinned + 1:]}"', 'f"{colors[:pinned]}1{colors[pinned + 1:]}"',
     ["tests/test_coloring.py::test_verify_pinned_matches_rooting_at_the_pin_small"]),
    ("extend_ray_coloring: suffix read two steps on", "src/treesym/coloring.py",
     "+ suffix[k + 1 : k + 2]", "+ suffix[k + 2 : k + 3]",
     ["tests/test_coloring.py::test_extend_matches_reference_on_pooled_lobes"]),
    ("extend_ray_coloring: the suffix lookup stops at a one-vertex S_D", "src/treesym/coloring.py",
     "        if suffix[k] < 0:  # S_{k-1}", "        if suffix[k] <= 0:  # S_{k-1}",
     ["tests/test_coloring.py::test_extend_matches_reference_on_pooled_lobes"]),
    ("extend_ray_coloring: the suffix lookup stops after S_{D-1}", "src/treesym/coloring.py",
     "        if suffix[k] < 0:  # S_{k-1}", "        if suffix[k] < 0 or k < end:  # S_{k-1}",
     ["tests/test_coloring.py::test_extend_failure_read_from_a_suffix_class_past_s_d_minus_1"]),
    ("extend_ray_coloring: classes in ascending order", "src/treesym/coloring.py",
     "groups.sort(key=lambda g: g[0], reverse=True)", "groups.sort(key=lambda g: g[0])",
     ["tests/test_coloring.py::test_extend_matches_reference_on_pooled_lobes"]),
    # treelike
    ("treelike_distinguish: the identity kept in the stream", "src/treesym/treelike.py",
     " if sigma != identity)", ")",
     ["tests/test_treelike.py::test_distinguish_matches_reference"]),
    ("treelike_distinguish: the search not drained", "src/treesym/treelike.py",
     "    deque(others, 0)", "    pass",
     ["tests/test_treelike.py::test_distinguish_past_the_limit_raises"]),
    # trees
    ("parse_edge_list: more than n - 1 edges accepted", "src/treesym/trees.py",
     "if sum(map(len, adj)) == 2 * n - 2 else ()", "if sum(map(len, adj)) >= 2 * n - 2 else ()",
     ["tests/test_parse_differential.py::test_mutated_texts_fail_alike"]),
    ("parse_edge_list: the cycle's line one early", "src/treesym/trees.py",
     "[_union_find(n, edges)[0] + 1]", "[_union_find(n, edges)[0]]",
     ["tests/test_parse_differential.py::test_mutated_texts_fail_alike"]),
    ("read_edge_lines: duplicates not checked", "src/treesym/trees.py",
     "or u == v or key in seen:\n            raise EdgeListParseError(",
     "or u == v:\n            raise EdgeListParseError(",
     ["tests/test_parse_differential.py::test_mutated_texts_fail_alike"]),
    ("_union_find: no union", "src/treesym/trees.py",
     "        parent[ru] = rv\n", "        parent[ru] = ru\n",
     ["tests/test_parse_differential.py::test_mutated_texts_fail_alike",
      "tests/test_treelike.py::test_forest_matches_reference_random"]),
    ("_with_center: an edge center one step off", "src/treesym/trees.py",
     "mid = len(path) // 2", "mid = (len(path) - 1) // 2",
     ["tests/test_trees.py::test_center_is_the_last_peeled_layer"]),
    ("_rooting: a leaf root has no children", "src/treesym/trees.py",
     "if len(kids) == 1 and u != w:  # a leaf", "if len(kids) == 1:  # a leaf",
     ["tests/test_trees.py::test_root_at_matches_reference"]),
    ("_rooting: a disconnected graph rooted in part", "src/treesym/trees.py",
     "if len(order) != t.n:", "if len(order) > t.n:",
     ["tests/test_trees.py::test_rooting_an_unchecked_non_tree_raises"]),
    ("_cut: one digit too few for a power of ten", "src/treesym/trees.py",
     "while 10**digits <= a:", "while 10**digits < a:",
     ["tests/test_parse_differential.py::test_cut_counts_a_long_int_without_str"]),
    ("_ints: a token of exactly 4,300 digits refused", "src/treesym/trees.py",
     "len(x) <= _MAX_INPUT_DIGITS and", "len(x) < _MAX_INPUT_DIGITS and",
     ["tests/test_parse_differential.py::test_long_lines_within_and_over_the_digit_limit"]),
    ("center: found again on every call", "src/treesym/trees.py",
     'if "_center" not in t.__dict__:', "if True:",
     ["tests/test_trees.py::test_center_is_found_once_per_tree"]),
    ("parse_edge_list: a second BFS to accept", "src/treesym/trees.py",
     "_with_center(Tree(n, adj), order[-1])", "_with_center(Tree(n, adj), _bfs(adj, 0)[0][-1])",
     ["tests/test_parse_differential.py::test_a_tree_and_its_center_cost_two_bfs_and_a_cycle_one_union_find"]),
    # corpus
    ("tree_from_pruefer: the next leaf from the wrong side of the pointer", "src/treesym/corpus.py",
     "if deg[a] == 1 and a < ptr:", "if deg[a] == 1 and a > ptr:",
     ["tests/test_corpus.py::test_pruefer_decoder_matches_reference"]),
    ("spider: the longer legs one too many", "src/treesym/corpus.py",
     "min(i, extra)", "min(i + 1, extra)",
     ["tests/test_corpus.py::test_spider_matches_leg_by_leg_build"]),
    ("_free_tree_jump: equal halves not canonical", "src/treesym/corpus.py",
     "(len(left), left) <= (len(rest), rest)", "(len(left), left) < (len(rest), rest)",
     ["tests/test_corpus.py::test_all_trees_counts"]),
    ("kary_tree: built through Tree.from_edges", "src/treesym/corpus.py",
     "Tree(n, _build_adjacency(n, [(child, (child - 1) // arity) for child in range(1, n)]))",
     "Tree.from_edges(n, [(child, (child - 1) // arity) for child in range(1, n)])",
     ["tests/test_corpus.py::test_generated_trees_build_no_checked_adjacency"]),
]


def copy_checkout(dest: Path) -> None:
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def run_pytest(where: Path, node_ids) -> tuple[int | None, str]:
    """pytest's exit code on ``node_ids`` in the copy ``where`` (None on a timeout) and its output."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids]
    try:
        done = subprocess.run(cmd, cwd=where, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def check_row(row) -> tuple[bool, str]:
    """(ok, report line) for one row: ok when the old text occurs once and each node id fails on the mutant."""
    name, file, old, new, node_ids = row
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        copy_checkout(where)
        path = where / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return False, f"BAD TEXT  {name}: the old text occurs {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        start = time.perf_counter()
        codes = [run_pytest(where, [node])[0] for node in node_ids]
    took = f"{time.perf_counter() - start:5.1f} s"
    survivors = [node for node, code in zip(node_ids, codes) if code == 0]
    if survivors:
        return False, f"SURVIVED  {name} ({took}; passes: {', '.join(survivors)})"
    # the unmutated run collected every node id, so any failure here, a collection error too, is the mutant's
    exits = ", ".join("timed out" if code is None else f"pytest exit {code}" for code in codes)
    return True, f"killed    {name} ({took}, {exits})"


def main() -> int:
    node_ids = list(dict.fromkeys(node for *_, nodes in ROWS for node in nodes))
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        copy_checkout(Path(tmp))
        code, out = run_pytest(Path(tmp), node_ids)
    if code != 0:
        print(f"the unmutated run of the {len(node_ids)} node ids failed (pytest exit {code}):\n{out[-3000:]}")
        return 1
    print(f"unmutated: {len(node_ids)} node ids pass; {len(ROWS)} mutants", flush=True)
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        failed = 0
        for ok, line in pool.map(check_row, ROWS):
            print(line, flush=True)
            failed += not ok
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
