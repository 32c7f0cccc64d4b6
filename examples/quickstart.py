"""Quickstart: train P3GM on a tabular dataset and release synthetic data.

Run with:  python examples/quickstart.py
"""

import tempfile

from repro.datasets import load_dataset
from repro.evaluation import evaluate_synthesizer, format_rows
from repro.models import P3GM
from repro.serving import SynthesisService, load_artifact, save_artifact


def main() -> None:
    # 1. Load a (simulated) sensitive dataset.  Features are already in [0, 1].
    data = load_dataset("adult", n_samples=4000, random_state=0)
    print(f"dataset: {data.name}  ({data.summary()})")

    # 2. Train the privacy-preserving phased generative model under (1, 1e-5)-DP.
    model = P3GM(
        latent_dim=10,
        hidden=(128,),
        epochs=5,
        batch_size=200,
        epsilon=1.0,
        delta=1e-5,
        noise_multiplier=1.6,  # Table IV value for Adult
        random_state=0,
    )
    model.fit(data.X_train, data.y_train)
    epsilon, delta = model.privacy_spent()
    print(f"trained P3GM with ({epsilon:.3f}, {delta})-differential privacy")
    print(f"  DP-SGD noise multiplier: {model.noise_multiplier_:.2f}")
    print(f"  DP-EM noise scale:       {model.sigma_em_:.2f}")

    # The training engine logs the composed epsilon spent so far (DP-PCA and
    # DP-EM plus the DP-SGD steps taken) alongside the losses every epoch
    # (repro.engine.PrivacyBudgetTracker); the last epoch reads the
    # guarantee privacy_spent() reports.
    for record in model.history:
        print(
            f"  epoch {record['epoch']}: elbo={record['elbo_loss']:.2f}  "
            f"epsilon so far={record['epsilon']:.3f}"
        )

    # 3. Release synthetic data with the same label ratio as the training data.
    X_synthetic, y_synthetic = model.sample_labeled(2000, rng=0)
    print(f"released synthetic data: {X_synthetic.shape}, positive rate {y_synthetic.mean():.3f}")

    # 4. Check utility: train classifiers on the synthetic data, test on real data.
    result = evaluate_synthesizer(model, data, model_name="P3GM", fit=False)
    print(format_rows([result.as_row()], title="\nUtility of the released data"))

    # 5. Release the *model*, not the data: write a versioned artifact, reload
    #    it in a fresh object, and stream samples with bounded memory.
    with tempfile.TemporaryDirectory() as artifact_root:
        save_artifact(model, f"{artifact_root}/p3gm-adult", metadata={"dataset": "adult"})
        reloaded = load_artifact(f"{artifact_root}/p3gm-adult", expected_class="P3GM")
        print(f"\nreloaded artifact reports privacy {reloaded.privacy_spent()}")

        service = SynthesisService(artifact_root=artifact_root)
        streamed = 0
        for chunk in service.stream("p3gm-adult", 100_000, seed=7, chunk_size=8192):
            streamed += len(chunk)  # each chunk is at most 8192 rows
        print(f"streamed {streamed} synthetic rows in bounded-memory chunks")


if __name__ == "__main__":
    main()
