import pytest

from overfill.errors import ConfigError
from overfill.model import init_model
from overfill.perfmodel import bench_wallclock

from helpers import TINY_CONFIG


def test_bench_wallclock_measures_batch_one_only():
    # Rows would run one after another, each reloading the weights, while
    # roofline_estimate charges one reload per step for the whole batch.
    w = init_model(TINY_CONFIG, seed=0)
    with pytest.raises(ConfigError, match="batch"):
        bench_wallclock(w, w, prompt_len=4, gen_len=2, batch=2, mode="full",
                        repeats=1, warmups=0)
    report = bench_wallclock(w, w, prompt_len=4, gen_len=2, batch=1, mode="overfill",
                             repeats=2, warmups=0)
    assert report.batch == 1 and report.prefill_s > 0 and report.decode_s > 0
