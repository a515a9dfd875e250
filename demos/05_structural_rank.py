"""Local structural screen: can the observed series even distinguish the
parameters, before any noise or fitting enters the picture?

Builds the relative-sensitivity matrix of the four observed series with
respect to each free parameter over the first four weeks, then reads rank
and conditioning off its SVD. Run for both variants to see why the full
eight-parameter fit is hopeless on a short window.
"""

from seiard import SearchSpace
from seiard.defaults import REPARAM_PINS, SEARCH_BOUNDS, TRUE_PARAMS
from seiard.structural import sensitivity_matrix, structural_verdict

TIMES = list(range(1, 29))

for label, pins in (("reparam", REPARAM_PINS), ("original", {})):
    names = SearchSpace(SEARCH_BOUNDS, pinned=pins).free_names
    report = sensitivity_matrix(TRUE_PARAMS, TIMES, free_names=names)
    verdict = structural_verdict(report)
    sv = report.singular_values
    print(f"== {label}: {len(names)} free parameters ==")
    print("singular values " + " ".join(f"{v:.3e}" for v in sv))
    print(f"numeric rank {report.numeric_rank} of {len(names)}, "
          f"condition number {report.condition_number:.3e}")
    print(f"verdict: {verdict['verdict']}")
    if verdict["entangled"]:
        # parameters loading on the weakest direction, worst first
        print("entangled: " + ", ".join(verdict["entangled"]))
    print()
