"""The benchmark's in-process workloads (perfbench/workloads.py) drive the
package through its public names.  A change that breaks one of them is
caught here, on small inputs, rather than only when the benchmark runs."""

import importlib.util
import os

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problems(workload) -> list:
    problems = []
    for item in workload.items:
        problems += workload.check(item, workload.run_item(item))
    return problems


def test_lattice_items_pass_their_checks():
    workload = _workloads().Lattice(0, bounds=((2, 3), (3, 2)))
    assert len(workload.items) == 23
    assert _problems(workload) == []


def test_certify_items_pass_their_checks():
    workload = _workloads().Certify(0, count=20)
    assert len(workload.items) == 20
    assert _problems(workload) == []
