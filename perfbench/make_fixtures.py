"""Write the score workload's fixture models and reference log-likelihoods.

    python3 perfbench/make_fixtures.py

Trains the pretrained arm in the fit workload's configuration: acceptance
criterion 3's series (GARCH alpha0=0.05, alpha1=0.10, beta1=0.85, T=1000,
series seed 11), N=2, K=3, 20 masked + 300 full epochs at lr 0.01, from the
first two of criterion 3's initialization seeds. Each model is written with
``save_model`` (final recurrent state as ``rmdn fit --save`` writes it) and
gets a ``provenance`` entry naming the commit and command that made it;
``load_model`` ignores that entry.
``fixtures/reference.json`` stores each model's log-likelihood, through
``unroll`` + ``nll``, on a check series the models were not fitted to
(criterion 4's two-regime series), with the tolerances the benchmark checks
against and why they were chosen. On the training series the models sit at
an optimum, where the log-likelihood moves only to second order in the
parameters; on the check series it moves to first order.
Deterministic: rerunning at the same commit rewrites identical files.
"""

import json
import sys

import run  # pins the BLAS/OpenMP thread counts before numpy is imported

sys.path.insert(0, str(run.SRC))

from rmdn import data, garch, gradients, harness, mixture, network, optim  # noqa: E402
from workloads import CONFIG, FIXTURE_DIR, FULL, GARCH_TRUE, TWO_REGIME  # noqa: E402

TRAIN_SERIES = {
    "params": {"a0": GARCH_TRUE.a0, "a1": GARCH_TRUE.a1, "alpha0": GARCH_TRUE.alpha0,
               "alpha1": GARCH_TRUE.alpha1, "beta1": GARCH_TRUE.beta1},
    "length": 1000,
    "seed": 11,
}
CHECK_SERIES = {
    "spec": {"mu1": TWO_REGIME.mu1, "var1": TWO_REGIME.var1, "mu2": TWO_REGIME.mu2,
             "var2": TWO_REGIME.var2, "weight1": TWO_REGIME.weight1,
             "switch_prob": TWO_REGIME.switch_prob},
    "length": 1000,
    "seed": 42,
}
COMMAND = "python3 perfbench/make_fixtures.py"

CHECK_TOLERANCE = {
    "rel": 1e-11,
    "why": ("The stored value and the check both run unroll + nll on the same float64 "
            "inputs, so at this commit they agree bit for bit. Evaluating the same "
            "parameters through forward_pass + nll_arrays, which only reorders the "
            "float64 sums, moved it by 6e-16 to 2.3e-15 relative; 1e-11 leaves over "
            "three orders of margin for such changes. Scaling one parameter by 1 + 1e-6 "
            "moved it by 1e-12 to 1e-7 relative, above 1e-11 for every output weight "
            "and bias of the variance network and the mixing biases."),
}
HELDOUT_TOLERANCE = {
    "rel": 1e-11,
    "why": ("The held-out reference is forward_pass + nll_arrays on the same parameters "
            "and state. It differs from unroll + nll only in the order of the float64 "
            "sums: measured at 2e-15 to 1.1e-14 relative at T=20000 (held-out series of "
            "seeds 1 to 3), so 1e-11 leaves close to three orders of margin."),
}


def main() -> int:
    commit = run.environment()["git_commit"]
    series = garch.simulate_garch(GARCH_TRUE, TRAIN_SERIES["length"],
                                  seed=TRAIN_SERIES["seed"], name="fixture-train")
    init = network.initial_state(series, CONFIG)
    check = data.simulate_mixture_process(TWO_REGIME, CHECK_SERIES["length"],
                                          seed=CHECK_SERIES["seed"], name="fixture-check")
    check_init = network.initial_state(check, CONFIG)
    models = []
    for seed in data.sample_seeds(10, 0, 50000, meta_seed=42)[:2]:
        report = optim.train(series, network.init_params(CONFIG, seed, "pretrain"), CONFIG,
                             FULL.fit_schedule, mask=gradients.nonlinear_node_mask(CONFIG))
        if report.status != optim.CONVERGED:
            raise RuntimeError(f"seed {seed} did not converge: {report.final_loglik}")
        _, state = network.unroll(series, report.final_params, CONFIG, init)
        path = FIXTURE_DIR / f"pretrained-seed{seed}.json"
        harness.save_model(report.final_params, CONFIG, state, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["provenance"] = {
            "commit": commit, "command": COMMAND, "init_seed": seed,
            "schedule": {"pretrain_epochs": FULL.fit_schedule.pretrain_epochs,
                         "train_epochs": FULL.fit_schedule.train_epochs,
                         "learning_rate": FULL.fit_schedule.learning_rate},
            "train_series": TRAIN_SERIES,
        }
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

        params, config, _ = harness.load_model(path)
        steps, _ = network.unroll(check, params, config, check_init)
        models.append({"file": path.name, "init_seed": seed,
                       "train_loglik": report.final_loglik,
                       "check_loglik": -mixture.nll(check, steps)})

    reference = {"commit": commit, "command": COMMAND, "train_series": TRAIN_SERIES,
                 "check_series": CHECK_SERIES, "check_tolerance": CHECK_TOLERANCE,
                 "heldout_tolerance": HELDOUT_TOLERANCE, "models": models}
    (FIXTURE_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                                encoding="utf-8")
    for m in models:
        print(f"{m['file']}: check loglik {m['check_loglik']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
