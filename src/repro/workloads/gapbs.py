"""The GAP benchmark suite (Beamer et al.), reimplemented in MiniC.

Eight graph kernels parallelised with the OpenMP model — each parallel
loop body is an *outlined function* handed to the runtime, i.e. an
external entry point executed by fresh threads (the callback-heavy
pattern §4.2 blames for part of the O3 slowdown) — and synchronised
with ``__sync`` compiler builtins that lower to hardware atomic
instructions, like the std::atomic usage in the original.

Graphs are uniform-random (fixed LCG seed) in CSR form, built
in-program; all kernels are evaluated on integer inputs, as in the
paper.  Table 3's 32-bit/64-bit columns come from instantiating the
kernels over ``int32`` or ``int`` payload arrays.
"""

from __future__ import annotations

from typing import List

from .base import InputSpec, Workload

#: Common graph scaffolding.  ``ETYPE`` is substituted with int32/int.
_GRAPH = r'''
int n;
int degree;
int nthreads;
int rng_state;
int row_ptr[257];
int col[2048];

int next_rand() {
  rng_state = rng_state * 1103515245 + 12345;
  return (rng_state >> 16) & 32767;
}

void build_graph() {
  int i;
  for (i = 0; i < n; i += 1) {
    row_ptr[i] = i * degree;
    int j;
    for (j = 0; j < degree; j += 1) {
      col[i * degree + j] = next_rand() % n;
    }
    // Keep adjacency sorted (needed by tc; harmless elsewhere).
    for (j = 1; j < degree; j += 1) {
      int v = col[i * degree + j];
      int k = j;
      while (k > 0 && col[i * degree + k - 1] > v) {
        col[i * degree + k] = col[i * degree + k - 1];
        k -= 1;
      }
      col[i * degree + k] = v;
    }
  }
  row_ptr[n] = n * degree;
}
'''


BFS = _GRAPH + r'''
ETYPE parent[256];
int frontier[2048];
int next_frontier[2048];
int frontier_size;
int next_size;

int bfs_body(int *arg, int lo, int hi) {
  int i;
  for (i = lo; i < hi; i += 1) {
    int u = frontier[i];
    int e;
    for (e = row_ptr[u]; e < row_ptr[u + 1]; e += 1) {
      int v = col[e];
      // Claim the vertex with an atomic compare-and-swap on parent.
      if (__sync_val_compare_and_swap(&parent[v], -1, u) == -1) {
        int slot = __sync_fetch_and_add(&next_size, 1);
        next_frontier[slot] = v;
      }
    }
  }
  return 0;
}

int main() {
  n = getparam(0);
  degree = getparam(1);
  rng_state = 101;
  build_graph();
  int i;
  for (i = 0; i < n; i += 1) { parent[i] = -1; }
  parent[0] = 0;
  frontier[0] = 0;
  frontier_size = 1;
  int reached = 1;
  while (frontier_size > 0) {
    next_size = 0;
    omp_parallel_for(bfs_body, 0, 0, frontier_size);
    for (i = 0; i < next_size; i += 1) {
      frontier[i] = next_frontier[i];
    }
    frontier_size = next_size;
    reached += next_size;
  }
  int psum = 0;
  for (i = 0; i < n; i += 1) {
    if (parent[i] >= 0) { psum += 1; }
  }
  printf("bfs reached=%d covered=%d\n", reached, psum);
  return 0;
}
'''


CC = _GRAPH + r'''
ETYPE label[256];
int changed;

int cc_body(int *arg, int lo, int hi) {
  int u;
  for (u = lo; u < hi; u += 1) {
    int e;
    for (e = row_ptr[u]; e < row_ptr[u + 1]; e += 1) {
      int v = col[e];
      int lv = label[v];
      int lu = label[u];
      if (lv < lu) {
        label[u] = lv;
        __atomic_store_n(&changed, 1);
      }
      if (lu < lv) {
        label[v] = lu;
        __atomic_store_n(&changed, 1);
      }
    }
  }
  return 0;
}

int main() {
  n = getparam(0);
  degree = getparam(1);
  rng_state = 103;
  build_graph();
  int i;
  for (i = 0; i < n; i += 1) { label[i] = i; }
  changed = 1;
  while (changed) {
    changed = 0;
    omp_parallel_for(cc_body, 0, 0, n);
  }
  int components = 0;
  for (i = 0; i < n; i += 1) {
    if (label[i] == i) { components += 1; }
  }
  printf("cc components=%d\n", components);
  return 0;
}
'''


CC_SV = _GRAPH + r'''
ETYPE comp[256];
int changed;

int hook_body(int *arg, int lo, int hi) {
  int u;
  for (u = lo; u < hi; u += 1) {
    int e;
    for (e = row_ptr[u]; e < row_ptr[u + 1]; e += 1) {
      int v = col[e];
      int cu = comp[u];
      int cv = comp[v];
      // Shiloach-Vishkin hook: attach the larger root to the smaller.
      if (cv < cu && cu == comp[cu]) {
        comp[cu] = cv;
        __atomic_store_n(&changed, 1);
      }
    }
  }
  return 0;
}

int compress_body(int *arg, int lo, int hi) {
  int u;
  for (u = lo; u < hi; u += 1) {
    while (comp[u] != comp[comp[u]]) {
      comp[u] = comp[comp[u]];
    }
  }
  return 0;
}

int main() {
  n = getparam(0);
  degree = getparam(1);
  rng_state = 107;
  build_graph();
  int i;
  for (i = 0; i < n; i += 1) { comp[i] = i; }
  changed = 1;
  while (changed) {
    changed = 0;
    omp_parallel_for(hook_body, 0, 0, n);
    omp_parallel_for(compress_body, 0, 0, n);
  }
  int components = 0;
  for (i = 0; i < n; i += 1) {
    if (comp[i] == i) { components += 1; }
  }
  printf("cc_sv components=%d\n", components);
  return 0;
}
'''


PR = _GRAPH + r'''
ETYPE rank_cur[256];
ETYPE rank_next[256];
ETYPE contrib[256];

int contrib_body(int *arg, int lo, int hi) {
  int u;
  for (u = lo; u < hi; u += 1) {
    contrib[u] = rank_cur[u] / degree;
  }
  return 0;
}

int rank_body(int *arg, int lo, int hi) {
  int u;
  for (u = lo; u < hi; u += 1) {
    int sum = 0;
    int e;
    for (e = row_ptr[u]; e < row_ptr[u + 1]; e += 1) {
      sum += contrib[col[e]];
    }
    // Fixed-point PageRank: base = 0.15 scaled by 10000.
    rank_next[u] = 1500 + (sum * 85) / 100;
  }
  return 0;
}

int main() {
  n = getparam(0);
  degree = getparam(1);
  int iters = getparam(2);
  rng_state = 109;
  build_graph();
  int i;
  for (i = 0; i < n; i += 1) { rank_cur[i] = 10000; }
  int it;
  for (it = 0; it < iters; it += 1) {
    omp_parallel_for(contrib_body, 0, 0, n);
    omp_parallel_for(rank_body, 0, 0, n);
    for (i = 0; i < n; i += 1) { rank_cur[i] = rank_next[i]; }
  }
  int total = 0;
  int top = 0;
  for (i = 0; i < n; i += 1) {
    total += rank_cur[i];
    if (rank_cur[i] > rank_cur[top]) { top = i; }
  }
  printf("pr total=%d top=%d\n", total, top);
  return 0;
}
'''


PR_SPMV = _GRAPH + r'''
ETYPE vec_x[256];
ETYPE vec_y[256];

int spmv_body(int *arg, int lo, int hi) {
  int u;
  for (u = lo; u < hi; u += 1) {
    int acc = 0;
    int e;
    for (e = row_ptr[u]; e < row_ptr[u + 1]; e += 1) {
      acc += vec_x[col[e]];
    }
    vec_y[u] = 1500 + (acc * 85) / (100 * degree);
  }
  return 0;
}

int main() {
  n = getparam(0);
  degree = getparam(1);
  int iters = getparam(2);
  rng_state = 113;
  build_graph();
  int i;
  for (i = 0; i < n; i += 1) { vec_x[i] = 10000; }
  int it;
  for (it = 0; it < iters; it += 1) {
    omp_parallel_for(spmv_body, 0, 0, n);
    for (i = 0; i < n; i += 1) { vec_x[i] = vec_y[i]; }
  }
  int total = 0;
  for (i = 0; i < n; i += 1) { total += vec_x[i]; }
  printf("pr_spmv total=%d\n", total);
  return 0;
}
'''


SSSP = _GRAPH + r'''
ETYPE dist[256];
int weights[2048];
int changed;

int relax_body(int *arg, int lo, int hi) {
  int u;
  for (u = lo; u < hi; u += 1) {
    if (dist[u] >= 1000000) { continue; }
    int e;
    for (e = row_ptr[u]; e < row_ptr[u + 1]; e += 1) {
      int v = col[e];
      int nd = dist[u] + weights[e];
      // Atomic-min via a CAS loop, as std::atomic code compiles to.
      int cur = dist[v];
      while (nd < cur) {
        if (__sync_bool_compare_and_swap(&dist[v], cur, nd)) {
          __atomic_store_n(&changed, 1);
          cur = nd;
        } else {
          cur = dist[v];
        }
      }
    }
  }
  return 0;
}

int main() {
  n = getparam(0);
  degree = getparam(1);
  rng_state = 127;
  build_graph();
  int i;
  for (i = 0; i < n * degree; i += 1) {
    weights[i] = 1 + (next_rand() % 9);
  }
  for (i = 0; i < n; i += 1) { dist[i] = 1000000; }
  dist[0] = 0;
  changed = 1;
  while (changed) {
    changed = 0;
    omp_parallel_for(relax_body, 0, 0, n);
  }
  int reach = 0;
  int sum = 0;
  for (i = 0; i < n; i += 1) {
    if (dist[i] < 1000000) { reach += 1; sum += dist[i]; }
  }
  printf("sssp reach=%d sum=%d\n", reach, sum);
  return 0;
}
'''


BC = _GRAPH + r'''
ETYPE depth[256];
ETYPE sigma[256];
ETYPE delta[256];
int frontier[2048];
int next_frontier[2048];
int frontier_size;
int next_size;
int levels[16];
int level_count;
int order[2048];
int order_size;

int bc_expand(int *arg, int lo, int hi) {
  int i;
  for (i = lo; i < hi; i += 1) {
    int u = frontier[i];
    int e;
    for (e = row_ptr[u]; e < row_ptr[u + 1]; e += 1) {
      int v = col[e];
      if (__sync_val_compare_and_swap(&depth[v], -1, depth[u] + 1)
          == -1) {
        int slot = __sync_fetch_and_add(&next_size, 1);
        next_frontier[slot] = v;
      }
      if (depth[v] == depth[u] + 1) {
        __sync_fetch_and_add(&sigma[v], sigma[u]);
      }
    }
  }
  return 0;
}

int main() {
  n = getparam(0);
  degree = getparam(1);
  rng_state = 131;
  build_graph();
  int i;
  for (i = 0; i < n; i += 1) { depth[i] = -1; sigma[i] = 0; delta[i] = 0; }
  depth[0] = 0;
  sigma[0] = 1;
  frontier[0] = 0;
  frontier_size = 1;
  order_size = 0;
  while (frontier_size > 0) {
    for (i = 0; i < frontier_size; i += 1) {
      order[order_size] = frontier[i];
      order_size += 1;
    }
    next_size = 0;
    omp_parallel_for(bc_expand, 0, 0, frontier_size);
    for (i = 0; i < next_size; i += 1) {
      frontier[i] = next_frontier[i];
    }
    frontier_size = next_size;
  }
  // Dependency accumulation in reverse BFS order (fixed point x1000).
  for (i = order_size - 1; i >= 0; i -= 1) {
    int u = order[i];
    int e;
    for (e = row_ptr[u]; e < row_ptr[u + 1]; e += 1) {
      int v = col[e];
      if (depth[v] == depth[u] + 1 && sigma[v] > 0) {
        delta[u] += sigma[u] * (1000 + delta[v]) / sigma[v];
      }
    }
  }
  int total = 0;
  for (i = 0; i < n; i += 1) { total += delta[i]; }
  printf("bc total=%d\n", total);
  return 0;
}
'''


TC = _GRAPH + r'''
int total_triangles;

int tc_body(int *arg, int lo, int hi) {
  int u;
  int found = 0;
  for (u = lo; u < hi; u += 1) {
    int e;
    for (e = row_ptr[u]; e < row_ptr[u + 1]; e += 1) {
      int v = col[e];
      if (v <= u) { continue; }
      // Sorted intersection of adj(u) and adj(v), w > v.
      int a = row_ptr[u];
      int b = row_ptr[v];
      while (a < row_ptr[u + 1] && b < row_ptr[v + 1]) {
        int wa = col[a];
        int wb = col[b];
        if (wa <= v) { a += 1; continue; }
        if (wb <= v) { b += 1; continue; }
        if (wa == wb) { found += 1; a += 1; b += 1; }
        else if (wa < wb) { a += 1; }
        else { b += 1; }
      }
    }
  }
  __sync_fetch_and_add(&total_triangles, found);
  return 0;
}

int main() {
  n = getparam(0);
  degree = getparam(1);
  rng_state = 137;
  build_graph();
  total_triangles = 0;
  omp_parallel_for(tc_body, 0, 0, n);
  printf("tc triangles=%d\n", total_triangles);
  return 0;
}
'''

_KERNELS = {
    "bc": BC, "bfs": BFS, "cc": CC, "cc_sv": CC_SV,
    "pr": PR, "pr_spmv": PR_SPMV, "sssp": SSSP, "tc": TC,
}

_PARAMS = {
    "bc": {"small": (48, 4), "medium": (128, 6), "large": (256, 8)},
    "bfs": {"small": (48, 4), "medium": (128, 6), "large": (256, 8)},
    "cc": {"small": (48, 4), "medium": (96, 6), "large": (192, 8)},
    "cc_sv": {"small": (48, 4), "medium": (96, 6), "large": (192, 8)},
    "pr": {"small": (48, 4, 3), "medium": (128, 6, 4), "large": (256, 8, 5)},
    "pr_spmv": {"small": (48, 4, 3), "medium": (128, 6, 4),
                "large": (256, 8, 5)},
    "sssp": {"small": (48, 4), "medium": (96, 6), "large": (192, 8)},
    "tc": {"small": (48, 4), "medium": (128, 6), "large": (256, 8)},
}


def _make(name: str, bits: int) -> Workload:
    etype = "int32" if bits == 32 else "int"
    source = _KERNELS[name].replace("ETYPE", etype)
    params = _PARAMS[name]
    suffix = f"_{bits}" if bits == 32 else ""
    return Workload(
        f"{name}{suffix}", "gapbs", source,
        inputs={size: (lambda p=p: InputSpec(params=p, omp_threads=4))
                for size, p in params.items()})


GAPBS_WORKLOADS: List[Workload] = [_make(name, 64) for name in _KERNELS]
GAPBS_WORKLOADS_32: List[Workload] = [_make(name, 32) for name in _KERNELS]
