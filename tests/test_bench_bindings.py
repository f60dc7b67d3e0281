"""The package names and command lines the benchmark under bench/ binds
to: every function it traces resolves, and every workload's command line
parses. Deleting a traced name or a flag fails here rather than in every
benchmark run. bench/ is only read."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from isodiam import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load_bench("spans")
workloads = _load_bench("workloads")


@pytest.mark.parametrize("layer, attr", [(layer, attr) for layer, attr, _ in spans.TARGETS])
def test_traced_function_resolves(layer, attr):
    owner = importlib.import_module(f"isodiam.{layer}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[method])
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize(
    "argv",
    [call.argv for build in workloads.WORKLOADS.values() for call in build(1).invocations],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_workload_command_line_parses(argv):
    cli.build_parser().parse_args(list(argv))
