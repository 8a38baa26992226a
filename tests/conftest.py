import pytest

from fogsched.model import DvfsConfig, FaultModel, FogNode, Task
from fogsched.sim import EventKind


def make_task(id=1, length=1000, deadline=2.0, submit_time=0.0, npe=1, **kw):
    return Task(id=id, length=length, deadline=deadline,
                submit_time=submit_time, npe=npe, **kw)


def make_node(id=1, mips=1000.0, npe_slots=1, v_max=1.2, f_max=1e9,
              activity=0.5, load_cap=2e-9, static_power=0.0,
              bandwidth=1000.0, ram=256.0):
    return FogNode(id=id, mips=mips, bandwidth=bandwidth, ram=ram,
                   npe_slots=npe_slots, v_max=v_max, f_max=f_max,
                   activity=activity, load_cap=load_cap,
                   static_power=static_power)


def assignment_of(sched):
    """Each scheduled task's node: {task_id: node_id} over sched.entries."""
    return {e.task_id: e.node_id for e in sched.entries}


def waits_and_completions(trace, instance):
    """From trace.events: each started task's wait, from submission to its
    first START, and each completed task's COMPLETION time."""
    submit = {t.id: t.submit_time for t in instance.tasks}
    waits, completions = {}, {}
    for e in trace.events:
        if e.kind is EventKind.START:
            waits.setdefault(e.task_id, e.time - submit[e.task_id])
        elif e.kind is EventKind.COMPLETION:
            completions[e.task_id] = e.time
    return waits, completions


@pytest.fixture
def ref_node():
    """The worked-example node: 0.5 * 2e-9 * 1.2^2 * 1e9 = 1.44 W."""
    return make_node()


@pytest.fixture
def default_dvfs():
    return DvfsConfig((0.6, 0.7, 0.8, 0.9, 1.0))


@pytest.fixture
def default_fm():
    return FaultModel(lambda0=1e-6, d=3.0, f_min=0.5)
