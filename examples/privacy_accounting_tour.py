"""A tour of the privacy accounting used by SE-PrivGEmb.

Shows, for the paper's default noise multiplier σ = 5 and δ = 1e-5:

* how the subsampled-Gaussian RDP curve is amplified by the sampling rate
  γ = B / |E| (Theorem 4),
* how many private epochs each target ε admits (Algorithm 2's stop rule),
* how the Moments-Accountant bound used by the DPGGAN/DPGVAE baselines
  compares at the same parameters: it is one more per-step RDP curve fed
  to the same step search.

Run with:

    python examples/privacy_accounting_tour.py
"""

from __future__ import annotations

from repro import RdpAccountant, load_dataset
from repro.config import TrainingConfig
from repro.privacy import MOMENTS_ALPHAS, max_steps_within, moments_rdp_curve


def main() -> None:
    graph = load_dataset("chameleon", scale=0.5, seed=0)
    training = TrainingConfig(batch_size=128)
    sampling_rate = min(training.batch_size, graph.num_edges) / graph.num_edges
    print(f"{graph}")
    print(f"batch size B = {training.batch_size}, |E| = {graph.num_edges}, γ = {sampling_rate:.4f}\n")

    delta = 1e-5
    accountant = RdpAccountant(noise_multiplier=5.0, sampling_rate=sampling_rate)
    moments = moments_rdp_curve(noise_multiplier=5.0, sampling_rate=sampling_rate)

    print("target ε   max private epochs (RDP)   max steps (Moments Accountant)")
    for epsilon in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
        rdp_steps = accountant.max_steps(epsilon, delta)
        ma_steps = max_steps_within(moments, MOMENTS_ALPHAS, epsilon, delta)
        print(f"{epsilon:>8}   {rdp_steps:>24}   {ma_steps:>30}")

    print("\nPrivacy actually spent after 200 epochs at γ above:")
    accountant.step(200)
    print(f"  {accountant.get_privacy_spent(delta)}")

    print("\nAmplification effect: per-step ε(α=8) with and without subsampling")
    full = RdpAccountant(noise_multiplier=5.0, sampling_rate=1.0)
    idx = list(full.alphas).index(8.0)
    print(f"  without subsampling: {full.per_step_rdp[idx]:.5f}")
    print(f"  with γ = {sampling_rate:.4f}:  {accountant.per_step_rdp[idx]:.7f}")


if __name__ == "__main__":
    main()
