"""Fault-tolerance architecture patterns around an unreliable classifier.

Six ways to wrap ML components so that the overall function keeps a
guarantee: vote several members (ensemble), switch to a verified fallback at
low confidence (simplex), let the spec answer whenever it can (gated), run a
programmed safety channel beside an advisory one (envelope), and harvest
low-confidence inputs for retraining. simulate() measures any of them
against a ground-truth oracle over a whole input domain.
"""
from specguard.monitor import TraceRecord
from specguard.patterns import (
    EnsembleConfig,
    EnvelopeConfig,
    GatedConfig,
    HarvestStore,
    SimplexConfig,
    ensemble_fuse,
    envelope_route,
    gated_classify,
    harvest,
    simplex_decide,
    simulate,
)
from specguard.speccore.classifiers import ExpressionClassifier, TableClassifier
from specguard.speccore.records import FeatureRecord, Prediction, value_key
from specguard.speccore.spec import PartialSpec
from specguard.speclang.parser import parse
from specguard.speclang.schema import GridType, Schema


def grid_from_bits(bits):
    return [[float((bits >> (r * 3 + c)) & 1) for c in range(3)] for r in range(3)]


schema = Schema({"img": GridType(3, 3)}, ("dark", "bright"))
domain = [FeatureRecord({"img": grid_from_bits(b)}, f"g{b}") for b in range(512)]

# Ground truth: a grid is bright when five or more cells are set.
oracle = TableClassifier(
    {
        value_key({"img": grid_from_bits(b)}): Prediction(
            "bright" if bin(b).count("1") >= 5 else "dark", 1.0
        )
        for b in range(512)
    }
)

# A deliberately bad ML member: it answers dark no matter what.
faulty = ExpressionClassifier((), default=Prediction("dark", 1.0))

# Gated: sufficient/necessary conditions decide the easy half of the domain.
spec = PartialSpec(
    schema=schema,
    precondition=parse("true"),
    sufficient={
        "bright": (parse("sum(input.img) > 6"),),
        "dark": (parse("sum(input.img) < 3"),),
    },
    necessary={
        "bright": (parse("sum(input.img) > 3"),),
        "dark": (parse("sum(input.img) < 6"),),
    },
)
bare = simulate(domain, oracle, faulty)
gated = simulate(domain, oracle, GatedConfig(spec, faulty))
print("bare faulty model error rate: ", f"{bare.error_rate:.3f}")
print("same model behind the gate:   ", f"{gated.error_rate:.3f}")
print("gate decision sources:        ", gated.per_source)

example = gated_classify(GatedConfig(spec, faulty), {"img": grid_from_bits(0b111111111)})
print("all-bright grid:", example.prediction.label, "via", example.source.value, example.mode)

# Simplex: trust the primary only above a confidence threshold.
primary = ExpressionClassifier((), default=Prediction("bright", 0.3))
fallback = ExpressionClassifier(
    ((parse("sum(input.img) >= 5"), "bright", 1.0),), default=Prediction("dark", 1.0)
)
decision = simplex_decide(SimplexConfig(primary, fallback, 0.5), {"img": grid_from_bits(1)})
print("\nsimplex at confidence 0.3, threshold 0.5:", decision.prediction.label,
      "via", decision.source.value)

# Ensemble: majority vote of three members, one of them wrong.
members = (fallback, fallback, faulty)
fused = ensemble_fuse(EnsembleConfig(members), {"img": grid_from_bits(0b111110000)})
print("2-of-3 vote on a five-bit grid:", fused.prediction.label, fused.mass)

# Envelope: the programmed channel answers; the ML channel only advises.
routed = envelope_route(EnvelopeConfig(fallback, faulty), {"img": grid_from_bits(0b111110000)})
print("\nenvelope safety/advisory:",
      routed.safety_prediction.label, "/", routed.advisory_prediction.label)

# Harvesting: collect inputs the model is unsure about for later labeling.
unsure = ExpressionClassifier(
    ((parse("sum(input.img) >= 6"), "bright", 0.95),), default=Prediction("dark", 0.4)
)
store = HarvestStore(threshold=0.8)
probes = [domain[bits] for bits in (0, 7, 63, 511)]
kept = [
    record.id
    for record in probes
    if harvest(store, TraceRecord(record.id, record, unsure.classify(record.fields)))
]
print("\nharvested", kept, "out of", [r.id for r in probes])
print("first stored reason:", store.entries[0][1])
