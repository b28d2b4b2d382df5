/// \file unified_trainers.h
/// \brief Representation-polymorphic trainers: GLM and k-means expressed
/// once against a laopt::Operand and executed by the buffered executor's
/// representation dispatch.
///
/// These are the only full-batch gradient-descent GLM loop and the only
/// Lloyd k-means loop in the library. The dense front doors `ml::TrainGlm`
/// (solver kBatchGd or kNormalEquations) and `ml::TrainKMeans` borrow their
/// matrix into an Operand and call these functions; CSR, compressed and
/// factorized (normalized-join) callers bind their matrix the same way —
/// `Operand(laopt::Borrow(m))` or `factorized::MakeFactorizedOperand` — so
/// the representation is chosen only by the Operand passed in. The matrix
/// products of every epoch — X·w, Xᵀ·g, X·Cᵀ, Xᵀ·A, XᵀX, rowSums(X ⊙ X) —
/// run through one BufferedExecutor, which dispatches each to the dense,
/// CSR, compressed or factorized kernel matching the binding
/// (laopt/executor.h). The scalar epoch bookkeeping (residuals, losses,
/// argmin assignment, center/weight updates) is representation-independent.
#ifndef DMML_ML_UNIFIED_TRAINERS_H_
#define DMML_ML_UNIFIED_TRAINERS_H_

#include "la/dense_matrix.h"
#include "laopt/operand.h"
#include "ml/glm.h"
#include "ml/kmeans.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::laopt {
class PlanProfile;
}  // namespace dmml::laopt

namespace dmml::ml {

/// \brief Non-owning Operand over a caller-held dense matrix
/// (`laopt::Borrow`) — the standard way to run an existing `DenseMatrix`
/// through the operand-based trainers (and the modelsel shared-scan engine)
/// without copying or transferring ownership. The caller must outlive every
/// executor run that reads it.
laopt::Operand BorrowOperand(const la::DenseMatrix& m);

/// \brief Full-batch gradient-descent GLM training on a design matrix in
/// any physical representation. The per-epoch X·w and Xᵀ·r products run on
/// the representation's native kernels (dense GEMM, CSR gemv/gevm, or the
/// compressed dictionary-pre-aggregating operators); buffers are executor
/// slots reused across epochs, so steady-state epochs allocate nothing.
///
/// Profiling (all three trainers): pass a `profile` to accumulate per-node
/// EXPLAIN ANALYZE evidence across every epoch's executor runs
/// (laopt/profile.h). With a null `profile`, setting the
/// DMML_EXPLAIN_ANALYZE environment variable to a truthy value makes the
/// trainer profile into a local PlanProfile and log the calibration report
/// at the end of training. While training runs, the active profile is
/// published on the obs `/profiles` endpoint under the trainer's span name
/// (e.g. "ml.glm.train_operand").
Result<GlmModel> TrainGlmOnOperand(const laopt::Operand& x,
                                   const la::DenseMatrix& y,
                                   const GlmConfig& config,
                                   ThreadPool* pool = nullptr,
                                   laopt::PlanProfile* profile = nullptr);

/// \brief Closed-form ridge solve (XᵀX + nλI) w = Xᵀy over any
/// representation of X (Gaussian family). XᵀX, Xᵀy and the intercept
/// border's colSums(X) are evaluated through the executor: dense bindings
/// hit the SYRK/fused-transpose kernels bit-identically to the historical
/// dense path; sparse and compressed bindings use their native operators
/// where they exist and the densify fallback where they do not. Fills
/// `model` (weights, intercept, one loss_history entry, epochs_run = 1).
Status RunNormalEquationsOnOperand(const laopt::Operand& x,
                                   const la::DenseMatrix& y,
                                   const GlmConfig& config, ThreadPool* pool,
                                   GlmModel* model,
                                   laopt::PlanProfile* profile = nullptr);

/// \brief Lloyd's k-means on a design matrix in any representation, with
/// expanded-distance assignment ‖x‖² − 2·x·c + ‖c‖².
///
/// Initial centers are k-means++ (`config.kmeanspp_init`, one X·cᵀ run per
/// new center) or uniform random rows; every center row is extracted with
/// an Xᵀ·e_i run, so no representation is decompressed or materialized. An
/// empty cluster is re-seeded at the row farthest from the center it was
/// assigned to in that iteration. A final assignment after the last update
/// makes `labels` and `inertia` describe the returned centers. Per-iteration
/// X·Cᵀ and Xᵀ·A products and the one-off rowSums(X ⊙ X) run on the
/// binding's native kernels; on a dense binding all three dot products of
/// the expansion sum in la::Dot order, so a point that coincides with its
/// center is at distance exactly 0.
Result<KMeansModel> TrainKMeansOnOperand(const laopt::Operand& x,
                                         const KMeansConfig& config,
                                         ThreadPool* pool = nullptr,
                                         laopt::PlanProfile* profile = nullptr);

}  // namespace dmml::ml

#endif  // DMML_ML_UNIFIED_TRAINERS_H_
