import contextlib
import math
import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

from ltrans import currents, redfield, steady, sweep
from ltrans.config import parse_config_text
from ltrans.currents import (heat_current_2nd_general, partial_secular_state,
                             tls_closed_forms)
from ltrans.linalg import ValidationError
from ltrans.sweep import compute_row, run_sweep, worker_count
from ltrans.validate import run_validation

RABI = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = 0.2
retained_levels = 3
fock_cutoff = 30
[baths]
T_left = 0.12
T_right = 0.08
alpha = 1e-3
omega_c = 5
[solver]
secular = partial
[sweep]
variable = g
start = 0.05
stop = 0.3
points = 3
"""

TLS = """
[model]
type = tls
epsilon = 0.3
delta = 1.0
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[solver]
secular = partial
[sweep]
variable = T
scale = log
start = 0.05
stop = 2
points = 4
"""

RABI_FULL_T = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = 0.2
retained_levels = 5
fock_cutoff = 40
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[solver]
secular = full
[sweep]
variable = T
scale = log
start = 0.02
stop = 1
points = 7
"""


def config(text, tmp_path, **replace):
    """The config `text` with the keys of `replace` set to new values."""
    for old, new in replace.items():
        text = text.replace(f"{old} = ", f"{old} = {new}  # ")
    return parse_config_text(text + f"[output]\ncsv = {tmp_path / 'out.csv'}\n")


class Hung(BaseException):
    """Raised by `deadline`: not an Exception (nor an OSError, which a wait
    for a child process absorbs), so the code under test cannot swallow it."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise Hung in the block, rather than hang, after `seconds`."""
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def spy(monkeypatch, calls, name, *modules):
    """Count the calls of function `name` through each module's binding."""
    for module in modules:
        orig = getattr(module, name)

        def counted(*args, _orig=orig, **kwargs):
            calls.append(name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("text", [RABI, TLS, RABI_FULL_T], ids=["rabi", "tls", "rabi_full_T"])
def test_csv_byte_identical_for_any_worker_count(tmp_path, text):
    out = {}
    for workers in (1, 2, 3):
        csv = tmp_path / f"w{workers}.csv"
        cfg = parse_config_text(text + f"[output]\ncsv = {csv}\n")
        result = run_sweep(cfg, workers=workers)
        assert result.ok and result.rows == cfg.points
        out[workers] = csv.read_bytes()
    assert out[1] == out[2] == out[3]
    rows = [compute_row(cfg, float(v)) for v in cfg.grid()]
    assert out[1].decode().splitlines()[1:] == rows


def test_worker_count_is_serial_unless_asked(monkeypatch):
    monkeypatch.delenv("LT_THREADS", raising=False)
    assert worker_count() == 1
    assert worker_count(3) == 3
    monkeypatch.setenv("LT_THREADS", "2")
    assert worker_count() == 2
    assert worker_count(1) == 1
    monkeypatch.setenv("LT_THREADS", "two")
    with pytest.raises(ValidationError, match="LT_THREADS"):
        worker_count()


@pytest.mark.parametrize("flag", [0, -4])
def test_non_positive_workers_flag_is_rejected(monkeypatch, flag):
    monkeypatch.setenv("LT_THREADS", "2")
    with pytest.raises(ValidationError, match="--workers"):
        worker_count(flag)


@pytest.mark.parametrize("env", ["0", "-1"])
def test_non_positive_lt_threads_is_rejected(monkeypatch, env):
    monkeypatch.setenv("LT_THREADS", env)
    with pytest.raises(ValidationError, match="LT_THREADS"):
        worker_count()
    assert worker_count(2) == 2                # the flag beats the variable


@pytest.mark.parametrize("text,bias,solves", [
    (TLS, {}, 1),                                       # T sweep: zero bias
    (RABI, {"T_right": 0.12}, 1),                       # g sweep at zero bias
    (RABI, {}, 2),                                      # g sweep, biased
], ids=["tls_T", "rabi_g_zero_bias", "rabi_g_biased"])
def test_partial_row_solves_once_at_zero_bias(tmp_path, monkeypatch, text, bias, solves):
    # kappa2's steady state at the common temperature is the row's own
    # state when T_left = T_right; a biased row needs a second solve
    calls = []
    spy(monkeypatch, calls, "_solve_retained", steady)
    cfg = config(text, tmp_path, **bias)
    cells = compute_row(cfg, 0.2).split(",")
    assert all(math.isfinite(float(c)) for c in cells[1:9])
    assert len(calls) == solves


@pytest.mark.parametrize("bias,solves", [({}, 1), ({"T_right": 0.08}, 2)],
                         ids=["zero_bias", "biased"])
def test_full_row_solves_once_at_zero_bias(tmp_path, monkeypatch, bias, solves):
    calls = []
    spy(monkeypatch, calls, "gamma_rates", currents, sweep)
    spy(monkeypatch, calls, "full_secular_steady", currents, sweep)
    cfg = config(RABI.replace("secular = partial", "secular = full"), tmp_path,
                 **{"T_left": 0.12, "T_right": 0.12, **bias})
    compute_row(cfg, 0.2)
    assert calls.count("gamma_rates") == solves
    assert calls.count("full_secular_steady") == solves


def test_zero_bias_currents_equal_an_explicit_solve(tmp_path):
    cfg = config(TLS, tmp_path)
    t = 0.5
    cells = compute_row(cfg, t).split(",")
    model = sweep._tls_junction(0.3, 1.0)
    baths = sweep._bose_baths(cfg.baths, t, t)
    state, _ = partial_secular_state(model, baths, c=cfg.cluster_factor,
                                     lamb_shift=cfg.lamb_shift)
    assert float(cells[5]) == heat_current_2nd_general(model, baths, "L", state)
    assert float(cells[6]) == heat_current_2nd_general(model, baths, "R", state)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the build spy reaches the child processes only if forked")
@pytest.mark.parametrize("text,builder,variable", [
    (TLS, "_tls_junction", "T"),
    (RABI_FULL_T, "build_rabi_junction", "T"),
    (RABI, "build_rabi_junction", "g"),
], ids=["tls_T", "rabi_full_T", "rabi_g"])
def test_model_built_once_per_chunk_of_a_t_sweep(tmp_path, monkeypatch, text, builder,
                                                  variable):
    # the spy appends one line per build to a file, so that it counts the
    # builds of the forked child processes too; a T sweep reuses one model
    # per chunk, any other sweep builds one per row
    log = tmp_path / "builds.log"
    orig = getattr(sweep, builder)

    def logged(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return orig(*args, **kwargs)

    monkeypatch.setattr(sweep, builder, logged)
    cfg = config(text, tmp_path, points=7)
    assert cfg.variable == variable
    csv = {}
    for workers, chunks in ((1, 1), (2, 2), (3, 3)):
        log.write_text("", encoding="utf-8")
        result = run_sweep(cfg, workers=workers)
        assert result.ok and result.rows == 7
        pids = log.read_text(encoding="utf-8").split()
        assert len(pids) == (chunks if variable == "T" else 7)
        assert len(set(pids)) == chunks            # one process per chunk,
        assert str(os.getpid()) in pids            # this one among them
        csv[workers] = (tmp_path / "out.csv").read_bytes()
    assert csv[1] == csv[2] == csv[3]


def test_child_rows_beyond_a_pipe_buffer_are_gathered(tmp_path):
    # each child's 600 rows outgrow a 64 KiB pipe buffer, so the child is
    # still writing when the caller turns to it; receiving before joining
    # keeps that from deadlocking
    cfg = config(TLS, tmp_path, start="1e-3", points=1200)
    with deadline(60):
        result = run_sweep(cfg, workers=2)
    assert result.ok and result.rows == 1200
    rows = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len("\n".join(rows[600:])) > 65536
    assert [float(r.split(",")[1]) for r in rows] == [float(v) for v in cfg.grid()]


@pytest.mark.parametrize("workers", [2, 3])
def test_child_that_ends_without_its_rows_raises(tmp_path, monkeypatch, workers):
    cfg = config(TLS, tmp_path, points=6)
    first = float(cfg.grid()[0])
    chunk_task = sweep._chunk_task

    def dying(chunk):
        if chunk[1][0] != first:               # any chunk a child computes
            os._exit(3)
        return chunk_task(chunk)

    monkeypatch.setattr(sweep, "_chunk_task", dying)
    with deadline(60), pytest.raises(RuntimeError, match=r"chunk 1 .*exitcode 3"):
        run_sweep(cfg, workers=workers)
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_failure_in_the_callers_chunk_leaves_no_child(tmp_path, monkeypatch, error):
    cfg = config(TLS, tmp_path, points=6)
    first = float(cfg.grid()[0])

    def failing(chunk):
        if chunk[1][0] == first:               # the chunk this process computes
            raise error("caller's chunk")
        time.sleep(60)                         # the children are still running

    monkeypatch.setattr(sweep, "_chunk_task", failing)
    t0 = time.monotonic()
    with deadline(60), pytest.raises(error, match="caller's chunk"):
        run_sweep(cfg, workers=3)
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []


def test_w_memo_stays_bounded_across_a_chunk(tmp_path, monkeypatch):
    # one model serves the 25 rows of a serial T sweep; its W memo holds
    # the tables of the current row only
    seen = []
    kappa4 = sweep.kappa4_lowT

    def recording_kappa4(model, *args):
        seen.append((id(model), len(model.tables)))
        return kappa4(model, *args)

    monkeypatch.setattr(sweep, "kappa4_lowT", recording_kappa4)
    cfg = config(TLS, tmp_path, start="1e-6", points=25)
    assert run_sweep(cfg, workers=1).ok
    assert len(seen) == 25 and len({m for m, _ in seen}) == 1
    assert max(n for _, n in seen) <= 2        # one W table per bath at most


def test_failed_model_build_fails_every_row_of_its_chunk(tmp_path):
    cfg = config(RABI_FULL_T, tmp_path, g=1.5, fock_cutoff=16, points=3)
    result = run_sweep(cfg, workers=1)
    assert [i for i, _ in result.failures] == [0, 1, 2]
    assert len({err for _, err in result.failures}) == 1
    assert result.failures[0][1].startswith("ValidationError: Fock truncation")
    with pytest.raises(ValidationError, match="Fock truncation"):
        compute_row(cfg, 0.1)


def test_validation_suite_passes():
    lines = []
    assert run_validation(out=lines.append) == 0
    assert lines[-1].startswith("OK")


@pytest.mark.filterwarnings("error")
def test_cold_tls_partial_row_matches_closed_form(tmp_path):
    # T = 1e-6 omega_ref: the bath rates are far beyond reach of a Matsubara series
    cfg = parse_config_text(TLS + f"[output]\ncsv = {tmp_path / 'cold.csv'}\n")
    cells = compute_row(cfg, 1e-6).split(",")
    values = [float(c) for c in cells[1:9]]
    assert all(math.isfinite(v) for v in values)
    omega_q = math.hypot(0.3, 1.0)
    q = 1.0 / omega_q                 # |<0|sigma_z|1>| in the eigenbasis
    _, _, k4 = tls_closed_forms(omega_q, q, q, 1e-3, 1e-6, 1e-6, omega_c=5.0)
    assert float(cells[3]) == pytest.approx(k4, rel=1e-9)


def test_partial_row_never_builds_the_full_kernel_tensor(tmp_path, monkeypatch):
    # a 21-level partial-secular row needs only the retained kernel block:
    # building all N^4 entries (through k2_tensor_from_w or a block over all
    # N^2 pairs) is a regression of the retained-block path
    def full_tensor(*args, **kwargs):
        raise AssertionError("full N^4 kernel tensor built on a partial-secular row")

    block_sizes = []
    pair_block = redfield.k2_pair_block

    def counting_pair_block(q, w, rows, cols):
        block_sizes.append((len(rows), len(cols)))
        return pair_block(q, w, rows, cols)

    monkeypatch.setattr(redfield, "k2_tensor_from_w", full_tensor)
    monkeypatch.setattr(redfield, "k2_pair_block", counting_pair_block)
    monkeypatch.setattr(currents, "k2_pair_block", counting_pair_block)
    cfg = parse_config_text(RABI.replace("retained_levels = 3", "retained_levels = 21")
                            .replace("fock_cutoff = 30", "fock_cutoff = 40")
                            + f"[output]\ncsv = {tmp_path / 'r21.csv'}\n")
    cells = compute_row(cfg, 0.2).split(",")
    assert all(math.isfinite(float(c)) for c in cells[1:9])
    assert cells[-1] == "21"
    # the nominal state, the kappa2 state and its temperature derivative
    assert len(block_sizes) == 3
    assert all(r < 21 * 21 and c < 21 * 21 for r, c in block_sizes)


@pytest.mark.parametrize("secular", ["partial", "full"])
def test_rabi_row_makes_no_dense_diagonalization(tmp_path, monkeypatch, secular):
    # the Rabi junction is solved as a band: a dense Hermitian solve on a
    # Rabi row is a regression of the banded path
    def dense(*args, **kwargs):
        raise AssertionError("dense eigensolver called on a Rabi row")

    for name, module in list(sys.modules.items()):
        if name.startswith("ltrans") and hasattr(module, "hermitian_eigensystem"):
            monkeypatch.setattr(module, "hermitian_eigensystem", dense)
    monkeypatch.setattr(np.linalg, "eigh", dense)
    cfg = parse_config_text(RABI.replace("secular = partial", f"secular = {secular}")
                            + f"[output]\ncsv = {tmp_path / 'rabi.csv'}\n")
    cells = compute_row(cfg, 0.2).split(",")
    assert all(math.isfinite(float(c)) for c in cells[1:9])
    assert cells[-1] == "3"
