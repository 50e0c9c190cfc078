#include "core/vertical.h"

#include <algorithm>
#include <limits>

#include "core/fmdv.h"

namespace av {

Result<VerticalSolution> SolveFmdvV(const ColumnProfile& profile,
                                    const ShapeGroup& group,
                                    const PatternIndex& index,
                                    const AutoValidateOptions& opts) {
  ShapeOptions options(profile, group, opts.gen);
  const size_t n = options.num_positions();
  if (n == 0) {
    return Status::Infeasible("no token positions to segment");
  }
  const size_t tau = opts.gen.max_tokens;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Segment costs c[s][e] for e - s <= tau, solved by FMDV (Equation 11's
  // first case). Index by s * (n + 1) + e.
  struct SegBest {
    double fpr = kInf;
    uint64_t coverage = 0;
    Pattern pattern;
  };
  std::vector<SegBest> seg(( n + 1) * (n + 1));
  size_t enumerated = 0;
  for (size_t s = 0; s < n; ++s) {
    const size_t e_max = std::min(n, s + tau);
    for (size_t e = s + 1; e <= e_max; ++e) {
      auto sol = SolveFmdvRange(options, s, e, index, opts);
      if (sol.ok()) {
        SegBest& b = seg[s * (n + 1) + e];
        b.fpr = sol->fpr;
        b.coverage = sol->coverage;
        b.pattern = std::move(sol->pattern);
        enumerated += sol->hypotheses_enumerated;
      }
    }
  }

  // Bottom-up DP over prefixes (Equation 11's second case).
  std::vector<double> best(n + 1, kInf);
  std::vector<size_t> back(n + 1, 0);
  best[0] = 0;
  for (size_t e = 1; e <= n; ++e) {
    const size_t s_min = e > tau ? e - tau : 0;
    for (size_t s = s_min; s < e; ++s) {
      const SegBest& b = seg[s * (n + 1) + e];
      if (b.fpr == kInf || best[s] == kInf) continue;
      const double cand = opts.vertical_use_max ? std::max(best[s], b.fpr)
                                                : best[s] + b.fpr;
      if (cand < best[e]) {
        best[e] = cand;
        back[e] = s;
      }
    }
  }

  if (best[n] == kInf) {
    return Status::Infeasible("no feasible segmentation");
  }
  if (best[n] > opts.fpr_target) {  // Equation (9)
    return Status::Infeasible("minimum summed FPR exceeds target r");
  }

  VerticalSolution out;
  out.fpr_total = best[n];
  out.hypotheses_enumerated = enumerated;
  out.min_segment_coverage = std::numeric_limits<uint64_t>::max();
  // Reconstruct segments right-to-left.
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t e = n; e > 0; e = back[e]) {
    ranges.push_back({back[e], e});
  }
  std::reverse(ranges.begin(), ranges.end());
  for (const auto& [s, e] : ranges) {
    const SegBest& b = seg[s * (n + 1) + e];
    out.segment_ranges.push_back({s, e});
    out.segment_patterns.push_back(b.pattern);
    out.pattern.Append(b.pattern);
    out.min_segment_coverage = std::min(out.min_segment_coverage, b.coverage);
  }
  return out;
}

}  // namespace av
