"""Source mutants the test suite must kill, and a runner that checks it does.

Each entry of ``MUTANTS`` maps a mutant's name to ``(file, old text, new
text, tests)``. ``file`` is relative to the repository root, and ``old
text`` occurs in it exactly once (``tests/test_mutants.py`` checks that).
``tests`` are pytest node ids, each of which must fail, or skip, once
``old text`` is replaced by ``new text``. A node id names a test file, a
test or one parametrized case; a file or a test fails when any test or
case in it does. ``tests/test_mutants.py`` also checks, without running
them, that each node id's file exists and defines its test.

    python tests/mutants.py [NAME ...]

copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, applies one mutant at a time there, runs only that mutant's
tests, and prints one line per mutant. A mutant is killed when one of its
tests fails and none passes; a test that skips (the golden digests do, on
other numerics) shows neither. The runner exits 1 if any mutant survives,
that is if any of its tests passed or none failed. A survivor means a test
is missing: add the test, do not drop the mutant. A change that removes or
rewrites the code a mutant names rewrites the mutant. The runner is not
part of the test suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = "tests/test_engine_digests.py::test_run_bytes_match_the_recorded_digests"

MUTANTS = {
    "adam-eps": (
        "src/randomout/optim.py",
        "eps=1e-8)",
        "eps=1.0000001e-8)",
        [
            "tests/test_optim.py::test_adam_eps_is_1e8",
            DIGESTS + "[crater-adam-randomout]",
            DIGESTS + "[crater-grid-forked]",
            DIGESTS + "[inception-adam-randomout]",
        ],
    ),
    "pool-columns-first": (
        "src/randomout/layers.py",
        """            rows = _sum_runs(sums, range(0, win * w, w), sums.size - (win - 1) * w)
            sums = np.empty(x.size, dtype=tensor.DTYPE)
            _sum_runs(rows, range(win), rows.size - (win - 1), out=sums[: rows.size - (win - 1)])
""",
        """            rows = _sum_runs(sums, range(win), sums.size - (win - 1))
            sums = np.empty(x.size, dtype=tensor.DTYPE)
            _sum_runs(rows, range(0, win * w, w), rows.size - (win - 1) * w, out=sums[: rows.size - (win - 1) * w])
""",
        [
            "tests/test_nn_layers.py::test_avgpool_forward_is_bitwise_the_strided_sums",
            DIGESTS + "[inception-adam-randomout]",
        ],
    ),
    "tap-span-100": (
        "src/randomout/layers.py",
        "TAP_SPAN_MIN = 256\n",
        "TAP_SPAN_MIN = 100\n",
        [
            "tests/test_nn_layers.py::test_conv2d_per_tap_backward_copies_no_patches_of_x[crater-conv2]",
        ],
    ),
    "per-tap-without-c-gt-1": (
        "src/randomout/layers.py",
        "per_tap = ks > 1 and c > 1 and span >= TAP_SPAN_MIN",
        "per_tap = ks > 1 and span >= TAP_SPAN_MIN",
        [
            "tests/test_nn_layers.py::test_conv2d_per_tap_backward_copies_no_patches_of_x[one-channel-span-697]",
        ],
    ),
    "skip-without-promotion": (
        "src/randomout/experiments.py",
        """        if followers:
            self.pending[followers[0].config_hash()] = (snapshot, followers[1:], followed)
""",
        "",
        [
            "tests/test_sharing.py::test_partly_stored_group_is_completed_with_the_same_bytes",
            "tests/test_sharing.py::test_random_grids_are_byte_identical_to_solo_runs",
            "tests/test_acceptance.py::test_criterion_07_grid_structure",
        ],
    ),
    "restore-without-optimizer-state": (
        "src/randomout/experiments.py",
        """        for a, saved in zip(optimizer.flat_state, self.optimizer_state):
            a[...] = saved
""",
        "",
        [
            "tests/test_arena.py::test_reset_after_a_snapshot_restore_zeroes_the_flat_moments",
            "tests/test_arena.py::test_runs_are_bitwise_the_per_parameter_optimizers",
            "tests/test_sharing.py::test_shared_runs_are_byte_identical_to_solo_runs[grid]",
            "tests/test_sharing.py::test_sweep_logs_match_the_recorded_schedule[grid]",
            "tests/test_sharing.py::test_partly_stored_group_is_completed_with_the_same_bytes",
            "tests/test_sharing.py::test_random_grids_are_byte_identical_to_solo_runs",
            DIGESTS + "[crater-grid-forked]",
        ],
    ),
    "oracle-m-hat-scaled": (
        "tests/optim_oracles.py",
        "m_hat = m / (1 - opt.beta1**t)",
        "m_hat = m / (1 - opt.beta1**t) * (1 + 1e-12)",
        [
            "tests/test_arena.py::test_runs_are_bitwise_the_per_parameter_optimizers",
        ],
    ),
    "col2im-assigns": (
        "src/randomout/tensor.py",
        "j : j + stride * wo : stride] += cols[:, :, i, j]",
        "j : j + stride * wo : stride] = cols[:, :, i, j]",
        [
            "tests/test_tensor.py::test_col2im_is_im2col_adjoint",
            "tests/test_tensor.py::test_im2col_col2im_counts_overlaps",
        ],
    ),
    "bn-eps-2e-5": (
        "src/randomout/layers.py",
        "BN_EPS = 1e-5\n",
        "BN_EPS = 2e-5\n",
        [
            "tests/test_nn_layers.py::test_batchnorm_train_forward_adds_eps_1e5_to_the_variance",
            DIGESTS + "[crater-batchnorm]",
        ],
    ),
    "dense-dx-flat": (
        "src/randomout/layers.py",
        "return (dout @ self.weight.value.T).reshape(x.shape)",
        "return dout @ self.weight.value.T",
        [
            "tests/test_nn_layers.py::test_dense_backward_accumulates_gradients",
            "tests/test_nn_layers.py::test_flatten_round_trip",
            "tests/test_acceptance.py::test_criterion_01_finite_difference_gradients",
        ],
    ),
    "width-order-unchecked": (
        "src/randomout/experiments.py",
        """    if widths != sorted(widths):
        raise ValueError(f"widths must increase, got {widths}")
""",
        "",
        [
            "tests/test_experiments.py::test_sweeps_reject_a_repeated_input_before_any_run[width-order]",
        ],
    ),
    "load-without-object-check": (
        "src/randomout/store.py",
        "if not isinstance(summary, dict) or summary.get(",
        "if summary.get(",
        [
            "tests/test_experiments.py::test_stale_run_directory_is_recomputed[not-an-object]",
        ],
    ),
    "load-reads-metrics-outside-try": (
        "src/randomout/store.py",
        """            return None
        return RunResult(cfg, str(run_dir), summary, read_metrics(run_dir / "metrics.csv"))
    except (OSError, ValueError):
        return None
""",
        """            return None
    except (OSError, ValueError):
        return None
    return RunResult(cfg, str(run_dir), summary, read_metrics(run_dir / "metrics.csv"))
""",
        [
            "tests/test_experiments.py::test_current_version_run_without_readable_metrics_is_recomputed",
        ],
    ),
    "sweep-takes-seed": (
        "src/randomout/cli.py",
        """    if args.seed is not None:
        parser.error("--seed does not apply to a sweep: it takes its seeds from --seeds")
""",
        "",
        [
            "tests/test_cli.py::test_bad_sweep_argument_exits_1_before_any_run[sweep-seed]",
        ],
    ),
    "diverged-any-integer": (
        "src/randomout/store.py",
        """        if value not in (0, 1):
            raise ValueError(f"{path}:{lineno}: {col} must be 0 or 1, got {text!r}")
""",
        "",
        [
            "tests/test_metrics.py::test_bad_values_report_line_and_column",
        ],
    ),
    "optimizers-swapped": (
        "src/randomout/optim.py",
        'OPTIMIZERS = {"sgd": SGD, "adam": Adam}',
        'OPTIMIZERS = {"sgd": Adam, "adam": SGD}',
        [
            "tests/test_optim.py::test_make_optimizer_dispatch",
            DIGESTS + "[crater-adam-randomout]",
            DIGESTS + "[inception-adam-randomout]",
        ],
    ),
}


def _listed(output, *outcomes):
    """Node ids of the tests with one of ``outcomes`` in pytest's ``-rfEp`` summary."""
    return [
        line.split(" ", 1)[1].split(" - ", 1)[0] for line in output.splitlines() if line.startswith(outcomes)
    ]


def _covers(test, ids):
    """Whether node id ``test`` is, or holds a test or case that is, in ``ids``."""
    return any(f == test or f.startswith((test + "::", test + "[")) for f in ids)


def run_mutant(name, root):
    """Apply mutant ``name`` in the copy at root, run its tests, undo it.

    Returns the named tests that let it live, empty when it is killed:
    those that passed, or all of them when none failed; and pytest's last
    output line.
    """
    file, old, new, tests = MUTANTS[name]
    path = root / file
    source = path.read_text()
    path.write_text(source.replace(old, new, 1))
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfEp", "--tb=no", "-p", "no:cacheprovider", *tests],
            cwd=root,
            # bytecode is keyed by mtime in seconds and size, so a mutant of the
            # same size, undone within the second, would leave stale bytecode
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
        )
    finally:
        path.write_text(source)
    failed, passed = _listed(out.stdout, "FAILED ", "ERROR "), _listed(out.stdout, "PASSED ")
    lines = out.stdout.strip().splitlines()
    last = lines[-1] if lines else out.stderr.strip()
    if not any(_covers(t, failed) for t in tests):
        return tests, last
    return [t for t in tests if _covers(t, passed) and not _covers(t, failed)], last


def main(names):
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
    names = names or list(MUTANTS)
    start = time.perf_counter()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", root)
        for name in names:
            t0 = time.perf_counter()
            alive, last = run_mutant(name, root)
            took = time.perf_counter() - t0
            if alive:
                survivors.append(name)
                print(f"SURVIVED {name} ({took:.1f} s): did not fail {', '.join(alive)} [{last}]", flush=True)
            else:
                print(f"killed   {name} ({took:.1f} s): {last}", flush=True)
    total = time.perf_counter() - start
    print(f"{len(names) - len(survivors)} of {len(names)} mutants killed in {total:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
