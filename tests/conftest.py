import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import qadv

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # The kernel micro-benchmarks run once each, untimed, unless
    # --benchmark-enable asks for timings. Set before pytest-benchmark reads
    # its options, and only where it is installed: without it the option
    # does not exist.
    if config.pluginmanager.hasplugin("benchmark"):
        config.option.benchmark_disable = True


def pytest_report_header(config):
    # pyproject's pythonpath puts this tree's src first, ahead of PYTHONPATH,
    # so name the package that is under test.
    return f"qadv {qadv.__version__} from {Path(qadv.__file__).parent}"
