"""Runtime monitoring of a deployed classifier.

The monitor replays an input/output trace against a partial spec. Every
record is checked in order (precondition, postcondition, sufficient,
necessary, probabilistic windows) and a policy maps each violation kind to a
state transition: NOMINAL, DEGRADED, or FAILSAFE. States never move
backwards; reaching FAILSAFE means the surrounding system should stop
trusting the component.
"""
from specguard.monitor import (
    MonitorPolicy,
    PolicyAction,
    TraceRecord,
    run_trace,
)
from specguard.speccore.records import FeatureRecord, Prediction
from specguard.speccore.spec import PartialSpec, RangeConstraint
from specguard.speclang.parser import parse
from specguard.speclang.schema import NumberType, Schema

schema = Schema({"height": NumberType()}, ("pedestrian", "not_pedestrian"))
spec = PartialSpec(
    schema=schema,
    precondition=parse("input.height > 0"),
    postcondition=parse("output.confidence > 0.1"),
    sufficient={"pedestrian": (parse("input.height > 6"),)},
    necessary={"pedestrian": (parse("input.height < 8"),)},
    probabilistic=(RangeConstraint("height", 0.0, 6.0, 0.9),),
)


def rec(rid, height, label="not_pedestrian", confidence=0.9):
    return TraceRecord(rid, FeatureRecord({"height": height}, rid), Prediction(label, confidence))


trace = [
    rec("r1", 5.0),
    rec("r2", 4.0),
    rec("r3", -1.0),                      # sensor glitch: precondition fails
    rec("r4", 5.0),
    rec("r5", 3.0),
    rec("r6", 5.0, confidence=0.05),      # model unsure: postcondition fails
    rec("r7", 2.0),
    rec("r8", 7.0, "pedestrian"),
    rec("r9", 9.0, "pedestrian"),         # necessary condition: pedestrians are under 8
    rec("r10", 4.0),
]

print("default policy (mark pre-violations untrusted, degrade otherwise):")
report = run_trace(spec, trace, MonitorPolicy())
for v in report.violations:
    print(f"  {v.record_id}: {v.kind.value}  {v.detail}")
print("final state:", report.final_state.value)

print("\nstrict policy (any class violation is fail-safe):")
strict = MonitorPolicy(
    on_pre_violation=PolicyAction.DEGRADE,
    on_post_class_violation=PolicyAction.FAILSAFE,
)
report = run_trace(spec, trace, strict)
print("final state:", report.final_state.value)
print("state was already FAILSAFE when these records arrived:")
print("  ", [v.record_id for v in report.violations if v.post_failsafe])
