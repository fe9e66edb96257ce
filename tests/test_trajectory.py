"""Per-epoch data-parameter snapshots, CSV round trips, fold averaging."""

import numpy as np
import pytest

from metasched.errors import ConfigError
from metasched.meta import DataParamState
from metasched.trajectory import TrajectoryLog, average_trajectories


def make_dps(n=6, k=3, mode="instance", temperature_mode=None):
    return DataParamState.initial(n, k, mode=mode, temperature_mode=temperature_mode)


def test_record_and_snapshot_round_trip():
    log = TrajectoryLog(n_instances=6, n_classes=3)
    dps = make_dps()
    dps.w_inst[2] = 0.4
    dps.w_class[:] = [1.0, 0.9, 1.3]
    dps.lam_wd = 2e-4
    log.record(dps)
    dps.w_inst[2] = 0.2
    log.record(dps)

    assert log.epochs == 2
    snap = log.snapshot(0)
    assert snap.epoch == 0
    tables = snap.as_tables()
    assert tables["w_inst"][2] == 0.4
    assert tables["w_inst"][0] == 1.0
    assert np.allclose(tables["w_class"], [1.0, 0.9, 1.3], rtol=0, atol=0)
    assert tables["lam_wd"] == 2e-4
    assert log.snapshot(1).as_tables()["w_inst"][2] == 0.2
    # the tables are copies: writing to them leaves the snapshot as recorded
    tables["w_inst"][0] = 5.0
    assert snap.w_inst[0] == 1.0


def test_to_csv_writes_only_non_unit_instance_rows(tmp_path):
    log = TrajectoryLog(n_instances=5, n_classes=2)
    dps = make_dps(5, 2)
    dps.w_inst[3] = 0.77
    dps.w_inst[1] = 0.0
    log.record(dps)
    dps.w_inst[:] = 1.0
    log.record(dps)
    path = tmp_path / "traj.csv"
    log.to_csv(path)
    inst_rows = [row for row in path.read_text().splitlines() if ",inst," in row]
    assert inst_rows == ["0,inst,1,0.0", "0,inst,3,0.77"]


def test_record_dimension_check():
    log = TrajectoryLog(n_instances=4, n_classes=2)
    with pytest.raises(ValueError):
        log.record(make_dps(5, 2))


def test_snapshot_out_of_range():
    log = TrajectoryLog(n_instances=2, n_classes=2)
    log.record(make_dps(2, 2))
    with pytest.raises(ValueError):
        log.snapshot(1)
    with pytest.raises(ValueError):
        log.snapshot(-1)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(4)
    log = TrajectoryLog(n_instances=8, n_classes=3)
    dps = make_dps(8, 3, temperature_mode="joint")
    for _ in range(3):
        dps.w_inst[rng.integers(8)] = float(rng.uniform(0, 2))
        dps.w_class[:] = rng.uniform(0.5, 1.5, size=3)
        dps.lam_wd = float(rng.uniform(0, 1e-3))
        dps.sigma_class[:] = rng.uniform(0.5, 2.0, size=3)
        dps.sigma_inst[:] = rng.uniform(-0.1, 0.1, size=8)
        log.record(dps)

    path = tmp_path / "traj.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "epoch,kind,id,value"

    back = TrajectoryLog.from_csv(path, 8, 3)
    assert back.epochs == 3
    for e in range(3):
        a = log.snapshot(e).as_tables()
        b = back.snapshot(e).as_tables()
        assert np.array_equal(a["w_inst"], b["w_inst"])
        assert np.array_equal(a["w_class"], b["w_class"])
        assert a["lam_wd"] == b["lam_wd"]
        assert np.array_equal(a["sigma_class"], b["sigma_class"])
        assert np.array_equal(a["sigma_inst"], b["sigma_inst"])


def test_from_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("epoch,type,id,value\n")
    with pytest.raises(ConfigError, match="header"):
        TrajectoryLog.from_csv(path, 2, 2)


def test_from_csv_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("epoch,kind,id,value\n0,momentum,0,1.0\n")
    with pytest.raises(ConfigError, match="kind"):
        TrajectoryLog.from_csv(path, 2, 2)


def read_bad_row(tmp_path, row):
    """from_csv on a file whose third line is ``row``; returns the error."""
    path = tmp_path / "bad.csv"
    path.write_text(f"epoch,kind,id,value\n0,class,0,1.0\n{row}\n0,wd,0,0.0\n")
    with pytest.raises(ConfigError) as err:
        TrajectoryLog.from_csv(path, 4, 2)
    assert f"{path} line 3:" in str(err.value)
    return str(err.value)


def test_from_csv_rejects_short_row(tmp_path):
    assert "expected epoch,kind,id,value, got '0,inst,1'" in read_bad_row(tmp_path, "0,inst,1")


def test_from_csv_rejects_non_numeric_value(tmp_path):
    assert "non-numeric" in read_bad_row(tmp_path, "0,inst,1,heavy")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_from_csv_rejects_non_finite_value(tmp_path, value):
    assert "non-finite" in read_bad_row(tmp_path, f"0,inst,1,{value}")


def test_from_csv_rejects_negative_epoch(tmp_path):
    assert "negative epoch -1" in read_bad_row(tmp_path, "-1,inst,1,0.5")


def test_from_csv_rejects_skipped_epoch(tmp_path):
    assert "epoch 2 before any row of epoch 1" in read_bad_row(tmp_path, "2,inst,1,0.5")


@pytest.mark.parametrize(
    "row",
    [
        "0,inst,99999,0.5",
        "0,inst,-1,0.5",
        "0,sigma_inst,4,0.5",
        "0,class,2,0.5",
        "0,sigma_class,2,0.5",
        "0,wd,1,0.5",
    ],
)
def test_from_csv_rejects_id_outside_its_table(tmp_path, row):
    kind, ident = row.split(",")[1:3]
    assert f"{kind} id {ident} outside" in read_bad_row(tmp_path, row)


def test_average_two_folds_means_weights():
    # instance 0 trains in both folds at 0.8 and 1.2 -> replayed 1.0
    logs, members = [], []
    for value in (0.8, 1.2):
        log = TrajectoryLog(n_instances=3, n_classes=2)
        dps = make_dps(3, 2)
        dps.w_inst[0] = value
        log.record(dps)
        logs.append(log)
        members.append(np.array([0, 1]))
    avg = average_trajectories(logs, members)
    tables = avg.snapshot(0).as_tables()
    assert np.isclose(tables["w_inst"][0], 1.0, rtol=0, atol=1e-15)


def test_average_respects_memberships():
    # instance 2 is trainable only in fold 1; fold 0's table must not leak in
    logs = []
    for fold, value in enumerate((0.3, 0.6)):
        log = TrajectoryLog(n_instances=4, n_classes=2)
        dps = make_dps(4, 2, temperature_mode="joint")
        dps.w_inst[2] = value
        dps.w_class[:] = [1.0 + fold, 2.0 + fold]
        dps.sigma_inst[:] = value
        dps.sigma_class[:] = [1.0 + fold, 2.0 + fold]
        log.record(dps)
        logs.append(log)
    members = [np.array([0, 1]), np.array([1, 2])]
    avg = average_trajectories(logs, members)
    tables = avg.snapshot(0).as_tables()
    assert tables["w_inst"][2] == 0.6
    assert tables["sigma_inst"][0] == 0.3
    assert tables["sigma_inst"][2] == 0.6
    # class and decay tables average over every fold
    assert np.allclose(tables["w_class"], [1.5, 2.5], rtol=1e-12)
    assert np.allclose(tables["sigma_class"], [1.5, 2.5], rtol=1e-12)
    # instance 3 belongs to no fold: neutral weight, joint offset still 0
    assert tables["w_inst"][3] == 1.0
    assert tables["sigma_inst"][3] == 0.0


def test_average_all_ones_stays_ones():
    logs = [TrajectoryLog(n_instances=3, n_classes=2) for _ in range(3)]
    for log in logs:
        log.record(make_dps(3, 2))
        log.record(make_dps(3, 2))
    avg = average_trajectories(logs)
    for e in range(2):
        tables = avg.snapshot(e).as_tables()
        assert np.array_equal(tables["w_inst"], np.ones(3))
        assert np.array_equal(tables["w_class"], np.ones(2))


def test_average_shape_mismatch_rejected():
    a = TrajectoryLog(n_instances=3, n_classes=2)
    b = TrajectoryLog(n_instances=4, n_classes=2)
    a.record(make_dps(3, 2))
    b.record(make_dps(4, 2))
    with pytest.raises(ValueError):
        average_trajectories([a, b])
    with pytest.raises(ValueError):
        average_trajectories([])
    with pytest.raises(ValueError):
        average_trajectories([a], memberships=[np.array([0]), np.array([1])])
