"""Why pointwise reconstruction is not enough.

The 1-D toy: ground truth x(t) = t, one reconstruction with a constant bias
and one with an alternating bias.  Both have identical pointwise error, so
the masked Huber loss cannot tell them apart; the temporal term of the
spatiotemporal regularizer can.
"""

from trajkit import lossbank as lb
from trajkit.motionlab import toy_1d_pair

for b in (0.05, 0.1, 0.2):
    gt, smooth, jitter, mask = toy_1d_pair(b, frames=10)
    rec_smooth = float(lb.recon_loss(lb.SegmentPair(gt, smooth, mask)))
    rec_jitter = float(lb.recon_loss(lb.SegmentPair(gt, jitter, mask)))
    # the regularizer at the published weights: 0.1 * temporal + 0.2 * spatial
    st_smooth, st_jitter = (sum(map(float, lb.consistency_terms(lb.SegmentPair(gt, r, mask),
                                                                None, 0.1, 0.2)[:2]))
                            for r in (smooth, jitter))
    print(f"b={b:4.2f}  recon: smooth={rec_smooth:.6f} jitter={rec_jitter:.6f}  "
          f"(equal: {abs(rec_smooth - rec_jitter) < 1e-12})")
    print(f"        st-reg: smooth={st_smooth:.6f} jitter={st_jitter:.6f}  "
          f"(gap = lambda_t * 2b = {0.1 * 2 * b:.4f})")

print("\nthe regularizer separates what the reconstruction loss cannot.")
