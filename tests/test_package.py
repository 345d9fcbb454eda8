"""The package's public surface: it re-exports each module's ``__all__`` and
nothing else, importing it loads only the library modules, and every name
the benchmark's tracer wraps exists."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import spectralorder as so
from spectralorder import core, family, harness, lattice, limits, projections

MODULES = (core, family, projections, lattice, limits, harness)


def test_all_has_no_duplicates():
    assert len(so.__all__) == len(set(so.__all__))


def test_all_is_the_modules_lists():
    assert so.__all__ == [name for m in MODULES for name in m.__all__]


def test_each_name_is_the_module_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(so, name) is getattr(m, name), f"{m.__name__}.{name}"


def test_readme_names_resolve():
    assert so.run_schedule is limits.run_schedule
    assert so.lattice_family is lattice.lattice_family
    assert so.cluster_values is family.cluster_values
    assert so.range_defect is family.range_defect


def test_import_loads_only_the_library_modules():
    script = (
        "import sys\n"
        "import spectralorder\n"
        "print(sorted(name for name in sys.modules if name.startswith('spectralorder')))\n"
        "print('argparse' in sys.modules)\n"
    )
    src = str(Path(so.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded, argparse_loaded = done.stdout.splitlines()
    expected = ["spectralorder"] + [
        f"spectralorder.{name}"
        for name in ("core", "errors", "family", "harness", "lattice", "limits", "projections")
    ]
    assert loaded == repr(expected)
    assert argparse_loaded == "False"


def test_benchmark_tracer_names_resolve():
    # bench/tracing.py imports only the standard library; it wraps these names
    # with getattr, so a name deleted from the package would break only a traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(layer, name) for layer, names in tracing.LAYER_FUNCTIONS.items() for name in names]
    wrapped += [("limits", name) for name in tracing.ITERATE_FUNCTIONS] + [("lattice", "lattice_family")]
    for layer, name in wrapped:
        module = importlib.import_module(f"spectralorder.{layer}")
        assert callable(getattr(module, name, None)), f"{layer}.{name}"
