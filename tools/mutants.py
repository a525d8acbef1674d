#!/usr/bin/env python3
"""Mutation check: each mutant is one exact edit to a file under ``src/``,
and the tests listed with it must fail once the edit is made.

    python3 tools/mutants.py

Run it from the root of a checkout, with numpy, pytest and hypothesis
importable and the ``twostage`` package not installed (an editable install
can shadow the copies).  For each mutant it copies ``src/``, ``tests/`` and
``pyproject.toml`` to a new temporary directory, makes the one edit there
(its snippet must occur exactly once in the file), and runs
``python -m pytest -x -q`` on the mutant's tests with the copy's ``src``
first on ``PYTHONPATH``.  A mutant whose tests all pass survives.  Before
any mutant, an unedited copy must pass every listed test, or a failing test
would count as a kill.

Exit status: 0 if every mutant is killed, 1 if one survives, 2 if the list
is stale (a snippet not found exactly once), the unedited copy fails, or
pytest ends other than by passing or failing (an unknown test id, say).

Each mutant undoes one check or fast path; add one with every new one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BAD_INPUTS = ("tests/test_core.py::"
              "test_bad_input_raises_its_typed_error_before_any_eval")
IN_SET = ("tests/test_core.py::"
          "test_a_candidate_in_its_set_below_budget_gains_nothing")
EXEMPLAR_SHAPES = "tests/test_exactness.py::test_exemplar_block_kernel_shapes"
EXEMPLAR_BLOCK = ("tests/test_exactness.py::"
                  "test_exemplar_block_kernel_is_bit_identical")
EXEMPLAR_KERNEL = ("tests/test_exactness.py::"
                   "test_exemplar_kernel_is_bit_identical")
EXEMPLAR_MEMBERLESS = ("tests/test_exactness.py::"
                       "test_exemplar_block_kernel_gives_a_memberless_set_zero")
EXEMPLAR_SINGLETONS = ("tests/test_exactness.py::"
                       "test_exemplar_singletons_equal_exemplar_value")
EXEMPLAR_PER_CLASS_SHAPES = ("tests/test_exactness.py::"
                             "test_exemplar_block_kernel_shapes_on_per_class_"
                             "tables")
FACILITY_SHAPES = "tests/test_exactness.py::test_facility_block_kernel_shapes"
FACILITY_FILLS = ("tests/test_exactness.py::"
                  "test_facility_fill_serves_several_blocks_bit_identically")
ENTRY_FILL = ("tests/test_exactness.py::"
              "test_a_leaders_entry_fill_reads_f_i_bit_identically")
EXEMPLAR_ROW = ("tests/test_exactness.py::"
                "test_exemplar_row_kernel_is_bit_identical")
EXEMPLAR_ROW_SHAPES = ("tests/test_exactness.py::"
                       "test_exemplar_row_kernel_shapes")
PROBE_RULE = "tests/test_core.py::TestSetsProbe"
EXCHANGE = "tests/test_streaming.py::TestExchange"
SHARED_BUILD = ("tests/test_objectives.py::TestExemplarFamily::"
                "test_shared_build_memory_is_one_table_plus_blocks")
GOLDEN_STREAM = "tests/test_exactness.py::test_golden_threshold_manager_run"
SHARED_STATES = ("tests/test_exactness.py::"
                 "test_shared_group_states_match_the_reference")
ONCE_PER_ELEMENT = ("tests/test_streaming.py::"
                    "test_each_function_set_reaches_the_objective_once_per_"
                    "element")
WINDOW = ("tests/test_streaming.py::TestThresholdManager::"
          "test_each_window_fix_up_gives_the_brute_force_window")
# ThresholdManager.process's probe dicts, seeded with the singletons
SEED = ("        seen = [{(): (None, v, v, [(i, (u,), v)])}\n"
        "                for i, v in enumerate(self.update_thresholds(u))]\n")
RESOLVER = "tests/test_greedy.py::TestBlockResolver"
GRID_LIMITS = ("tests/test_streaming.py::TestAdmission::"
               "test_a_grid_at_a_limit_is_accepted_and_one_over_it_refused")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout's root
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant("check_ids without its range test", "src/twostage/core.py",
           "inside = 0 <= index(e) < n", "inside = index(e) or True",
           (BAD_INPUTS,)),
    Mutant("exchange without check_ids", "src/twostage/streaming.py",
           "    _check_ids((u,), F.ground.n)\n", "",
           (BAD_INPUTS, "tests/test_streaming.py::TestKnowOpt::"
                        "test_bad_ids_raise_also_after_the_summary_is_full")),
    Mutant("replacement_greedy without check_ids", "src/twostage/greedy.py",
           "    _check_ids(cands, F.ground.n)\n", "",
           (BAD_INPUTS,)),
    Mutant("_block_values without check_ids", "src/twostage/core.py",
           "        _check_ids(xs, F.ground.n)\n", "",
           ("tests/test_core.py::TestServedValue::"
            "test_out_of_range_candidate_raises_at_the_block_boundary",)),
    Mutant("_probe without check_ids", "src/twostage/core.py",
           "    _check_ids((x,), F.ground.n)\n    if len(key) < k:",
           "    if len(key) < k:",
           (BAD_INPUTS,)),
    # a candidate already in its set below budget: no eval for marginal,
    # the missing base's eval for nabla and lambda_gain
    Mutant("in-set candidate without the counted base eval",
           "src/twostage/core.py",
           "            if counted and base is None:\n"
           "                F.value(i, key)\n", "",
           (IN_SET,)),
    Mutant("in-set candidate's base eval for marginal too",
           "src/twostage/core.py",
           "            if counted and base is None:\n",
           "            if base is None:\n",
           (IN_SET,)),
    Mutant("value without check_ids", "src/twostage/core.py",
           "        _check_ids(key, self._n)\n", "",
           (BAD_INPUTS,)),
    Mutant("value without the tuple of its ids", "src/twostage/core.py",
           "            ids = tuple(ids)\n", "            pass\n",
           (BAD_INPUTS,)),
    Mutant("evaluate_solution without the length check",
           "src/twostage/core.py",
           "    if len(sol.per_function) != F.m:\n"
           "        raise ValueError(", "    if False:\n        raise ValueError(",
           (BAD_INPUTS, "tests/test_core.py::TestEvaluateSolution")),
    Mutant("exemplar fill's block returned transposed",
           "src/twostage/objectives.py",
           "return sums.take(pos, axis=0, out=out)\n",
           "return sums.take(pos, axis=0, out=out).T\n",
           (EXEMPLAR_SHAPES, EXEMPLAR_BLOCK)),
    # the block kernel's two steps: a fill made of every base of its entry
    Mutant("bases half drops the last base", "src/twostage/objectives.py",
           "np.maximum.reduce(table.take(bases, axis=0), axis=1",
           "np.maximum.reduce(table.take(bases[:-1], axis=0), axis=1",
           (FACILITY_SHAPES, FACILITY_FILLS)),
    # a streaming leader's entry fill: one row reduced over its columns,
    # served less the offsets, and dropped where add rebuilds the entry it
    # was made for
    Mutant("one-row fill reduced over the bases", "src/twostage/objectives.py",
           "_add_reduce(_maximum(kept, row), 1)[None]",
           "_add_reduce(_maximum(kept, row), 0)[None]",
           (ENTRY_FILL,)),
    Mutant("a fill's row served without the offsets", "src/twostage/core.py",
           "if offsets[i] and raws is None and raw:",
           "if offsets[i] and raws is None and raw and block is None:",
           ("tests/test_exactness.py::"
            "test_entry_fills_on_drawn_runs_match_the_scalar_reference",)),
    Mutant("a fill kept after add rebuilds its entry", "src/twostage/core.py",
           "                self.fills[i] = None\n", "",
           ("tests/test_exactness.py::"
            "test_add_drops_the_fill_of_each_entry_it_rebuilds",)),
    # one store of fills for greedy's blocks and streaming's leaders: a
    # kept column is current while the fill that wrote it is the entry's,
    # and a fill is kept only once a read of it has returned
    Mutant("a kept column reused after add dropped its fill",
           "src/twostage/core.py",
           "if fill is None or wrote[i] is not fill:",
           "if wrote[i] is None or fill is not None and wrote[i] is not fill:",
           ("tests/test_greedy.py::TestKeptBlock::"
            "test_later_rounds_refill_only_changed_functions",)),
    Mutant("a block's fill stored before its first read returned",
           "src/twostage/core.py",
           "fill = fill or F._block(i, bases)",
           "fill = self.fills[i] = fill or F._block(i, bases)",
           ("tests/test_greedy.py::TestKeptBlock::"
            "test_a_kernel_that_raises_mid_refill_leaves_no_stale_column",)),
    Mutant("a leader's fill stored before its first read returned",
           "src/twostage/core.py",
           "fill = fills[i] or block(i, bases)",
           "fill = fills[i] = fills[i] or block(i, bases)",
           ("tests/test_exactness.py::"
            "test_a_leaders_fill_that_raises_is_not_kept",)),
    # the similarity tables: each column's anchor less the distance,
    # clipped at 0.0, over a last row of zeros, which changes no maximum
    # and is all that a set with no member reads.  f_i and the kernels
    # read the same tables, so a wrong entry shows against the references
    # and the build-time singletons, and an unclipped one also where the
    # row kernel's chain, which has no floor at 0.0, leaves f_i's
    Mutant("exemplar similarities from each row's anchor, not each column's",
           "src/twostage/objectives.py",
           "np.subtract(anchor, sim, out=sim)",
           "np.subtract(anchor[:, None], sim, out=sim)",
           (EXEMPLAR_SINGLETONS, EXEMPLAR_KERNEL)),
    Mutant("exemplar similarities not clipped at 0",
           "src/twostage/objectives.py",
           "    np.maximum(sim, 0.0, out=sim)\n", "",
           (EXEMPLAR_SINGLETONS, EXEMPLAR_ROW)),
    Mutant("exemplar tables' last row the anchors, not zeros",
           "src/twostage/objectives.py",
           "    table[width] = 0.0\n", "    table[width] = anchor\n",
           (EXEMPLAR_SHAPES, EXEMPLAR_MEMBERLESS)),
    Mutant("exemplar non-member mapped to row 0",
           "src/twostage/objectives.py",
           'array("i", [len(table) - 1]) * n', 'array("i", [0]) * n',
           (EXEMPLAR_SHAPES, EXEMPLAR_PER_CLASS_SHAPES, EXEMPLAR_SINGLETONS)),
    Mutant("exemplar f_i without its division by the width",
           "src/twostage/objectives.py",
           "return _max_sum(table, [index[e] for e in ids], cols) / width",
           "return _max_sum(table, [index[e] for e in ids], cols)",
           (EXEMPLAR_KERNEL, EXEMPLAR_BLOCK)),
    Mutant("exemplar layout choice inverted", "src/twostage/objectives.py",
           "if used.size ** 2 <= sum(", "if used.size ** 2 > sum(",
           (SHARED_BUILD, EXEMPLAR_SINGLETONS)),
    Mutant("exemplar singletons summed over the full shared row",
           "src/twostage/objectives.py",
           "np.add.reduce(_gather(table, rix, cols), axis=1)",
           "np.add.reduce(_gather(table, rix, None), axis=1)",
           (EXEMPLAR_SINGLETONS,)),
    # all_solutions serves each (i, T_i) after its first eval
    Mutant("all_solutions without its served values",
           "src/twostage/streaming.py",
           "F.value(i, t, known.get((i, t)))", "F.value(i, t)",
           ("tests/test_streaming.py::TestProbeDict::"
            "test_all_solutions_evaluates_the_sets_of_a_group_once",
            ONCE_PER_ELEMENT)),
    # the rule that counts a probed move, and exchange's two tests
    Mutant("probe's swap rule at g >= 0", "src/twostage/core.py",
           "            if not ((r is None or g > 0) and (step is None or "
           "g >= step * b)):",
           "            if not ((r is None or g >= 0) and (step is None or "
           "g >= step * b)):",
           (PROBE_RULE,)),
    Mutant("probe's bar at >", "src/twostage/core.py",
           "            if not ((r is None or g > 0) and (step is None or "
           "g >= step * b)):",
           "            if not ((r is None or g > 0) and (step is None or "
           "g > step * b)):",
           (PROBE_RULE,)),
    Mutant("exchange's full summary at >", "src/twostage/streaming.py",
           "len(state.S) >= state.ell:", "len(state.S) > state.ell:",
           (EXCHANGE,)),
    Mutant("exchange's threshold test at <=", "src/twostage/streaming.py",
           "    if _average(gains, delta) < state.tau:",
           "    if _average(gains, delta) <= state.tau:",
           (EXCHANGE,)),
    # tau 0.0 takes every element; a NaN, negative or infinite one is refused
    Mutant("StreamState without the tau check", "src/twostage/streaming.py",
           "        if not 0 <= tau < math.inf:\n", "        if False:\n",
           (BAD_INPUTS,)),
    Mutant("tau check at 0 <", "src/twostage/streaming.py",
           "        if not 0 <= tau < math.inf:\n",
           "        if not 0 < tau < math.inf:\n",
           ("tests/test_streaming.py::TestExchange::"
            "test_a_new_base_is_its_sets_value_not_base_plus_gain",)),
    Mutant("tau check at <= inf", "src/twostage/streaming.py",
           "        if not 0 <= tau < math.inf:\n",
           "        if not 0 <= tau <= math.inf:\n",
           (BAD_INPUTS,)),
    Mutant("threshold test at <=", "src/twostage/streaming.py",
           "            if avg < tau:\n", "            if avg <= tau:\n",
           ("tests/test_streaming.py::TestThresholdManager::"
            "test_an_average_gain_equal_to_tau_is_accepted",)),
    # the outputs and evals stay the same: only the probes and the
    # sharing show it
    Mutant("every instance its own leader", "src/twostage/streaming.py",
           "            if state is not leader:", "            if True:",
           ("tests/test_exactness.py::"
            "test_threshold_manager_probes_once_per_group",
            "tests/test_streaming.py::"
            "test_instances_of_one_group_hold_one_state_between_them")),
    Mutant("followers without the replay", "src/twostage/streaming.py",
           "                for i, ids, v in calls:\n"
           "                    value(i, ids, v)\n",
           "                pass\n",
           (GOLDEN_STREAM, SHARED_STATES)),
    Mutant("adopters without their served base evals",
           "src/twostage/streaming.py",
           "                        value(i, new.T[i], new.base[i])\n",
           "                        pass\n",
           (GOLDEN_STREAM, SHARED_STATES)),
    # the element's probe dict: each (i, T_i) probed once per element
    Mutant("probe dict keyed by T_i without i", "src/twostage/streaming.py",
           SEED, SEED + "        seen = [seen[0]] * len(seen)\n",
           (GOLDEN_STREAM, SHARED_STATES, ONCE_PER_ELEMENT)),
    Mutant("a shared probe's replay dropped", "src/twostage/core.py",
           "                for call in made:\n"
           "                    value(*call)\n",
           "                pass\n",
           (GOLDEN_STREAM, SHARED_STATES)),
    Mutant("the singleton seed skipped", "src/twostage/streaming.py", SEED,
           "        self.update_thresholds(u)\n"
           "        seen = [{} for _ in range(F.m)]\n",
           (ONCE_PER_ELEMENT,)),
    # _move's insertion: its recorded call, which a later leader and every
    # follower make again, and its gain against the base
    Mutant("insertion without its recorded call", "src/twostage/core.py",
           "        if calls is not None:\n"
           "            calls.append((i, ids, v))\n"
           "        return None, v - base, v\n",
           "        return None, v - base, v\n",
           ("tests/test_exactness.py::"
            "test_threshold_manager_matches_reference",)),
    Mutant("insertion gain without its base", "src/twostage/core.py",
           "return None, v - base, v", "return None, v, v",
           (PROBE_RULE,)),
    # base + (v - base) differs from v only where a rounding ties, so
    # only a hand-made tie shows it
    Mutant("add served base[i] + gains[i]", "src/twostage/core.py",
           "F.value(i, key, values[i])",
           "F.value(i, key, self.base[i] + gain)",
           ("tests/test_streaming.py::TestExchange::"
            "test_a_new_base_is_its_sets_value_not_base_plus_gain",)),
    # greedy's block resolver: the first best row, the swap clamp, and the
    # probe of every row of a block holding a value that is not finite.  A
    # clamp at >= 0 would be no mutant: max(g, 0) is the same either way,
    # and the replaced y comes from the probe of the row found
    Mutant("resolver's argmax taken last", "src/twostage/core.py",
           "return int(gains[rows, -1].argmax())",
           "return len(rows) - 1 - int(gains[rows, -1][::-1].argmax())",
           (RESOLVER + "::test_ties_go_to_the_lowest_replaced_y_and_"
            "candidate",)),
    Mutant("resolver without the swap clamp", "src/twostage/core.py",
           "        np.maximum(gains, floor, out=gains)\n", "",
           (RESOLVER + "::test_greedy_runs_equal_the_scalar_path",)),
    Mutant("resolver's non-finite fallback skipped", "src/twostage/core.py",
           "        if not (isfinite(vals.max()) and isfinite(vals.min())):\n"
           "            return None\n", "",
           ("tests/test_greedy.py::TestSwapProbeKernel::"
            "test_non_finite_kernel_values_are_evaluated_again",)),
    # the outputs and evals stay the same: only the probes per round show
    # a stale row of a candidate in S read again
    Mutant("kept block's rows of candidates in S not zeroed",
           "src/twostage/core.py",
           "            vals[[row_of[x] for x in self.S if x in row_of]] = "
           "0.0\n", "",
           (RESOLVER + "::test_a_stale_non_finite_row_is_not_read_in_later_"
            "rounds",)),
    Mutant("served plan's column one to the right", "src/twostage/core.py",
           "pos = np.array([i * k + j for",
           "pos = np.array([i * k + j + 1 for",
           (RESOLVER + "::test_served_plan_mixes_insertions_and_swaps",)),
    # the exemplar row kernel: x's own row in each chain, and the empty
    # base's singleton; facility's in-place singleton sum
    Mutant("exemplar row kernel without x's row", "src/twostage/objectives.py",
           "own = views[index[x]]", "own = zero",
           (EXEMPLAR_ROW_SHAPES, EXEMPLAR_ROW)),
    Mutant("facility singleton sums the previous row",
           "src/twostage/objectives.py",
           "np.add.reduce(mat[ids[0]])", "np.add.reduce(mat[ids[0] - 1])",
           ("tests/test_exactness.py::test_facility_kernel_is_bit_identical",
            "tests/test_exactness.py::"
            "test_facility_swap_kernel_is_bit_identical")),
    Mutant("exemplar row kernel's empty base reads the wrong singleton",
           "src/twostage/objectives.py",
           "vals.append(float(singles[x]))",
           "vals.append(float(singles[x - 1]))",
           (EXEMPLAR_ROW_SHAPES,)),
    # the threshold window's four fix-up loops and the grid's two limits.
    # Each end's first loop at the other strictness is equivalent: where
    # it moves one exponent too far, the end's second loop moves it back.
    # So those two mutants skip their loop instead.
    Mutant("window's lower fix-up up skipped", "src/twostage/streaming.py",
           "            while grid ** l_lo < lo:\n",
           "            while False:\n",
           (WINDOW,)),
    Mutant("window's lower fix-up down at >", "src/twostage/streaming.py",
           "            while grid ** (l_lo - 1) >= lo:\n",
           "            while grid ** (l_lo - 1) > lo:\n",
           (WINDOW,)),
    Mutant("window's upper fix-up down skipped", "src/twostage/streaming.py",
           "            while grid ** l_hi > self.delta:\n",
           "            while False:\n",
           (WINDOW,)),
    Mutant("window's upper fix-up up at <", "src/twostage/streaming.py",
           "            while grid ** (l_hi + 1) <= self.delta:\n",
           "            while grid ** (l_hi + 1) < self.delta:\n",
           (WINDOW,)),
    Mutant("slot limit at >=", "src/twostage/streaming.py",
           "    if slots > MAX_INSTANCE_SLOTS:",
           "    if slots >= MAX_INSTANCE_SLOTS:",
           (GRID_LIMITS,)),
    Mutant("instance limit at >=", "src/twostage/streaming.py",
           "    if bound > MAX_INSTANCES:", "    if bound >= MAX_INSTANCES:",
           (GRID_LIMITS,)),
    Mutant("validate without the objective check", "src/twostage/cli.py",
           "        if self.objective not in OBJECTIVES:\n", "        if False:\n",
           (BAD_INPUTS, "tests/test_cli.py::TestMain::test_unknown_objective"
                        "_is_refused_before_any_family_is_built")),
)


def copy_tree(into: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def apply(mutant: Mutant, into: Path):
    """Make the mutant's edit in the copy; ValueError unless its snippet
    occurs exactly once."""
    path = into / mutant.path
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet found {count} times "
                         f"in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run_tests(into: Path, tests, check_import=False) -> int:
    """pytest's exit code for ``tests`` on the copy in ``into``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(into / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    if check_import:
        where = subprocess.run(
            [sys.executable, "-c", "import twostage; print(twostage.__file__)"],
            cwd=into, env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(into)):
            raise ValueError(f"twostage imports from {where!r}, not the copy")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=into, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        copy_tree(base)
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        try:
            code = run_tests(base, tests, check_import=True)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        if code != 0:
            print(f"error: the unedited tree fails its tests (pytest exit "
                  f"{code}): {' '.join(tests)}")
            return 2

    survivors, errors = [], []
    for m in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            into = Path(tmp)
            copy_tree(into)
            try:
                apply(m, into)
            except ValueError as exc:
                errors.append(str(exc))
                print(f"error     {exc}")
                continue
            code = run_tests(into, m.tests)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error {code}")
        print(f"{verdict:9} {m.name} ({time.perf_counter() - start:.1f} s)",
              flush=True)
        if code == 0:
            survivors.append(m.name)
        elif code != 1:
            errors.append(f"{m.name}: pytest exit {code}")
    print(f"{len(MUTANTS) - len(survivors) - len(errors)} of {len(MUTANTS)} "
          f"mutants killed")
    if errors:
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
