"""Set-up probe: what every CLI invocation pays before round 1.

Run in a fresh interpreter with one experiment config as a JSON argument:
imports fair_experts, resolves the config (``ExperimentConfig.from_dict``,
``make_scenario``, ``make_learner``) and starts the learner and the scenario
run, then exits. The caller times the whole process.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from fair_experts.adversaries import make_scenario  # noqa: E402
from fair_experts.harness import ExperimentConfig  # noqa: E402
from fair_experts.learners import make_learner  # noqa: E402

config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
scenario = make_scenario(config.scenario)
learner = make_learner(config.learner, T=config.T, epsilon=config.epsilon, alpha=config.alpha)
learner.start(scenario.d, scenario.num_groups)
scenario.start(config.T, np.random.SeedSequence(config.base_seed))
