"""forumlens: communities of attack-pattern interest and actor expertise from forum CVE chatter.

The pipeline ingests forum posts mentioning CVE identifiers, resolves each CVE
to CAPEC attack patterns through CWE identifiers, builds an unweighted
actor-CAPEC bimodal network, detects communities of interest with the Leiden
algorithm, derives per-actor skill / commitment / activity features, and
clusters actors into the Professional / Pro-Amateur / Average Career Criminal /
Amateur expertise quadrants.
"""

__version__ = "0.1.0"

# Defaults of the stages' flags, here so that the CLI builds its parser without
# importing a stage (and numpy with it); each stage imports its own.
DEFAULT_CAPEC_THRESHOLD = 500
DEFAULT_LEIDEN_RESTARTS = 10
DEFAULT_MIN_POSTS = 4
DEFAULT_SKILL_PERCENTILE = 70
DEFAULT_K_MIN = 2
DEFAULT_K_MAX = 12
DEFAULT_CLUSTER_RESTARTS = 10
EXPORT_FORMATS = ("graphml", "dot", "csv")
