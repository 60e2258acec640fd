from .parse import PARSE_FIELDS, parse_batch  # noqa: F401
from .enrich import Enricher  # noqa: F401

# operator families (imported lazily by most callers; re-exported here
# as the discoverable API surface)
from .aggregate import (cube_counts, grouped_counts,  # noqa: F401
                        grouped_distinct_count, grouped_quantiles,
                        latest_per_key, rollup_counts,
                        sliding_window_counts, topk_per_group)
from .funnel import funnel_stages, grouped_min  # noqa: F401
from .asof import (consecutive_dedup, fill_forward, lag, lead,  # noqa: F401
                   rolling_sum, running_max, running_total)
from .temporal import asof_join_value, range_join  # noqa: F401
from .join import (anti_join, bucketed_join, bucketed_write,  # noqa: F401
                   cross_join, except_distinct, hash_join,
                   intersect_distinct, semi_join, union_by_name)
from .sample import (deterministic_sample, group_reservoir,  # noqa: F401
                     stratified_sample, weighted_priority_sample)
from .sessionize import gap_sessions, sessionize  # noqa: F401
from .dedup import (connected_components,  # noqa: F401
                    ngram_containment_pairs, normalized_dedup_groups)
from .curate import (decontaminate, profile_columns,  # noqa: F401
                     redact_pii_batch, repetition_scores_batch)
from .similarity import (ann_topk_bruteforce,  # noqa: F401
                         grouped_centroid_sums, kmeans_fixed)
from .graph import pagerank, triangle_counts  # noqa: F401
