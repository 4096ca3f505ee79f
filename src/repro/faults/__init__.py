"""Declarative fault injection: plans (pure data) + their execution.

See :mod:`repro.faults.plan` for the event vocabulary and
:mod:`repro.faults.inject` for how a plan lands on the calendar.
"""

from repro._lazy import lazy_exports

#: Exported name -> the module that defines it, resolved on first use
#: (PEP 562), so a run without a fault plan never loads the injector.
_EXPORTS = {
    "FaultInjector": "repro.faults.inject",
    "FaultPlan": "repro.faults.plan",
    "FaultEvent": "repro.faults.plan",
    "NodeCrash": "repro.faults.plan",
    "NodeRecover": "repro.faults.plan",
    "PageLoss": "repro.faults.plan",
    "MediumLossWindow": "repro.faults.plan",
    "Partition": "repro.faults.plan",
    "BatteryDrain": "repro.faults.plan",
    "EVENT_TYPES": "repro.faults.plan",
    "event_from_dict": "repro.faults.plan",
    "standard_fault_plan": "repro.faults.plan",
    "disruption_times": "repro.faults.plan",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
