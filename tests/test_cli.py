import json

import pytest

from otfsim import cli, harness
from otfsim.harness import (
    RunConfig,
    WaveformSpec,
    run_papr,
    run_sweep,
    write_bler_csv,
    write_papr_csv,
)

TINY = RunConfig(
    waveforms=(WaveformSpec("vsb_ofdm", 0),),
    snr_grid_db=(20.0,),
    trials_per_point=2,
    chunk_size=2,
    master_seed=5,
    papr_frames=3,
)


def _write_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY.to_dict()))
    return str(path)


def test_run_writes_what_the_sweep_gives(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _write_config(tmp_path), "--out", str(out)]) == 0
    write_bler_csv(tmp_path / "bler.csv", run_sweep(TINY))
    assert (out / "bler.csv").read_bytes() == (tmp_path / "bler.csv").read_bytes()
    assert not (out / "papr.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config_sha256"] == TINY.config_hash()
    assert RunConfig.from_dict(meta["config"]) == TINY


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_run_rejects_threads_below_one(tmp_path, capsys, threads):
    out = tmp_path / "out"
    argv = ["run", "--config", _write_config(tmp_path), "--out", str(out), "--threads", threads]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_papr_writes_what_the_measurement_gives(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["papr", "--config", _write_config(tmp_path), "--out", str(out)]) == 0
    write_papr_csv(tmp_path / "papr.csv", run_papr(TINY))
    assert (out / "papr.csv").read_bytes() == (tmp_path / "papr.csv").read_bytes()
    assert not (out / "bler.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config_sha256"] == TINY.config_hash()


@pytest.mark.parametrize("command, entry", [("run", "run_sweep"), ("papr", "run_papr")])
def test_an_unusable_out_fails_before_any_trial(tmp_path, monkeypatch, command, entry):
    # --out names a file: the directory cannot be made, and no trial may
    # run only to have its results lost
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial started before --out was made")

    monkeypatch.setattr(harness, entry, no_trials)
    with pytest.raises(FileExistsError):
        cli.main([command, "--config", _write_config(tmp_path), "--out", str(out)])
    assert out.read_text() == "a file, not a directory"


def test_profiles_list(capsys):
    assert cli.main(["profiles", "list"]) == 0
    assert "tdl_a: 23 taps" in capsys.readouterr().out.splitlines()
