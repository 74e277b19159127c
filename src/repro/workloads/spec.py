"""SPECint-2006-like single-threaded programs (Table 4, Figure 4).

Ten programs whose *indirect-control-flow character* mirrors the
paper's Table 4: ``mcf`` and ``libquantum`` contain no indirect
transfers (pure static recovery suffices), ``gcc`` and ``gobmk``
dispatch through jump tables and function-pointer tables (many ICFTs,
where the hybrid tracer earns its keep), and the others sit in
between.  ``xalancbmk`` contains a construct the strict translator
rejects (a TLS-base read on a never-executed path), reproducing the
paper's "failed IR translation for certain superfluous code paths".

All take their "ref input" via harness parameters / the input blob, so
input complexity can be scaled for the Figure 4 additive-lifting sweep.
"""

from __future__ import annotations

from typing import List

from .base import InputSpec, Workload, lcg_bytes

BZIP2 = r'''
char outbuf[8192];
int freq[256];

// Block-mode handlers selected through a function-pointer table: the
// compressor picks a strategy per block based on its content.
int mode_rle(char *src, int lo, int hi, int out) {
  int i = lo;
  while (i < hi) {
    char b = src[i];
    int run = 1;
    while (i + run < hi && src[i + run] == b && run < 200) { run += 1; }
    outbuf[out] = run;
    outbuf[out + 1] = b;
    out += 2;
    i += run;
  }
  return out;
}

int mode_delta(char *src, int lo, int hi, int out) {
  char prev = 0;
  int i;
  for (i = lo; i < hi; i += 1) {
    outbuf[out] = src[i] - prev;
    prev = src[i];
    out += 1;
  }
  return out;
}

int mode_raw(char *src, int lo, int hi, int out) {
  int i;
  for (i = lo; i < hi; i += 1) {
    outbuf[out] = src[i];
    out += 1;
  }
  return out;
}

int pick_mode(char *src, int lo, int hi) {
  int runs = 0;
  int i;
  for (i = lo + 1; i < hi; i += 1) {
    if (src[i] == src[i - 1]) { runs += 1; }
  }
  if (runs * 3 > hi - lo) { return 0; }
  if (runs * 8 > hi - lo) { return 1; }
  return 2;
}

int main() {
  int modes[3];
  modes[0] = (int)mode_rle;
  modes[1] = (int)mode_delta;
  modes[2] = (int)mode_raw;
  char *src = (char*)input_data();
  int len = input_size();
  int block = 64;
  int out = 0;
  int lo;
  for (lo = 0; lo < len; lo += block) {
    int hi = lo + block;
    if (hi > len) { hi = len; }
    int mode = pick_mode(src, lo, hi);
    int fn = modes[mode];
    outbuf[out] = mode;
    out += 1;
    out = fn(src, lo, hi, out);
  }
  int checksum = 0;
  int i;
  for (i = 0; i < out; i += 1) {
    checksum = (checksum * 131 + outbuf[i]) % 1000003;
  }
  printf("bzip2 in=%d out=%d checksum=%d\n", len, out, checksum);
  return 0;
}
'''

GCC = r'''
// A tiny expression compiler: tokenizer, precedence parser, bytecode
// emitter with jump-table dispatch, constant-folding "optimiser" and
// stack-machine evaluator.  Operator handlers sit in a function-
// pointer table, so the interpreter main loops are full of ICFTs.
int code_op[512];
int code_arg[512];
int code_len;
int pos;
int stack[64];
int sp;

int emit(int op, int arg) {
  code_op[code_len] = op;
  code_arg[code_len] = arg;
  code_len += 1;
  return 0;
}

int op_add(int a, int b) { return a + b; }
int op_sub(int a, int b) { return a - b; }
int op_mul(int a, int b) { return a * b; }
int op_div(int a, int b) { if (b == 0) { return 0; } return a / b; }
int op_mod(int a, int b) { if (b == 0) { return 0; } return a % b; }
int op_and(int a, int b) { return a & b; }
int op_or(int a, int b) { return a | b; }
int op_xor(int a, int b) { return a ^ b; }

int binop_table[8];

int peek_char() {
  char *src = (char*)input_data();
  if (pos >= input_size()) { return 0; }
  return src[pos];
}

int parse_primary() {
  int c = peek_char();
  if (c == '(') {
    pos += 1;
    int v = parse_expr(1);
    pos += 1;          // ')'
    return v;
  }
  int value = 0;
  while (c >= '0' && c <= '9') {
    value = value * 10 + (c - '0');
    pos += 1;
    c = peek_char();
  }
  emit(1, value);      // PUSH
  return 0;
}

int prec_of(int c) {
  switch (c) {
    case 43: return 2;      // +
    case 45: return 2;      // -
    case 42: return 3;      // *
    case 47: return 3;      // /
    case 37: return 3;      // %
    case 38: return 1;      // &
    case 124: return 1;     // |
    case 94: return 1;      // ^
    default: return 0;
  }
}

int opcode_of(int c) {
  switch (c) {
    case 43: return 10;
    case 45: return 11;
    case 42: return 12;
    case 47: return 13;
    case 37: return 14;
    case 38: return 15;
    case 124: return 16;
    case 94: return 17;
    default: return 0;
  }
}

int parse_expr(int min_prec) {
  parse_primary();
  while (1) {
    int c = peek_char();
    int p = prec_of(c);
    if (p < min_prec || p == 0) {
      break;
    }
    pos += 1;
    parse_expr(p + 1);
    emit(opcode_of(c), 0);
  }
  return 0;
}

int run_code() {
  sp = 0;
  int ip;
  for (ip = 0; ip < code_len; ip += 1) {
    int op = code_op[ip];
    if (op == 1) {
      stack[sp] = code_arg[ip];
      sp += 1;
    } else {
      int b = stack[sp - 1];
      int a = stack[sp - 2];
      sp -= 2;
      int fn = binop_table[op - 10];
      stack[sp] = fn(a, b);
      sp += 1;
    }
  }
  if (sp > 0) { return stack[sp - 1]; }
  return 0;
}

int main() {
  binop_table[0] = (int)op_add;
  binop_table[1] = (int)op_sub;
  binop_table[2] = (int)op_mul;
  binop_table[3] = (int)op_div;
  binop_table[4] = (int)op_mod;
  binop_table[5] = (int)op_and;
  binop_table[6] = (int)op_or;
  binop_table[7] = (int)op_xor;
  int total = 0;
  int exprs = 0;
  pos = 0;
  while (pos < input_size()) {
    code_len = 0;
    parse_expr(1);
    total += run_code();
    exprs += 1;
    if (peek_char() == ';') { pos += 1; }
    else { break; }
  }
  printf("gcc exprs=%d total=%d\n", exprs, total);
  return 0;
}
'''

MCF = r'''
// Min-cost-flow flavoured relaxation: pure loops, zero indirect
// control transfers (the case where static recovery is complete).
int cost[1024];
int dist[64];
int rng_state;

int next_rand() {
  rng_state = rng_state * 1103515245 + 12345;
  return (rng_state >> 16) & 32767;
}

int main() {
  int n = getparam(0);
  rng_state = 51;
  int i;
  for (i = 0; i < n * n; i += 1) {
    cost[i] = 1 + (next_rand() % 20);
  }
  for (i = 0; i < n; i += 1) { dist[i] = 1000000; }
  dist[0] = 0;
  int round;
  for (round = 0; round < n; round += 1) {
    int u;
    for (u = 0; u < n; u += 1) {
      int v;
      for (v = 0; v < n; v += 1) {
        int nd = dist[u] + cost[u * n + v];
        if (nd < dist[v]) { dist[v] = nd; }
      }
    }
  }
  int sum = 0;
  for (i = 0; i < n; i += 1) { sum += dist[i]; }
  printf("mcf sum=%d\n", sum);
  return 0;
}
'''

GOBMK = r'''
// Game-tree playouts with per-phase move generators selected through
// a function-pointer table -- indirect calls on the hot path.
int board[81];
int rng_state;
int gen_table[4];

int next_rand() {
  rng_state = rng_state * 1103515245 + 12345;
  return (rng_state >> 16) & 32767;
}

int gen_corner(int turn) { return (next_rand() % 4) * 20 + turn % 9; }
int gen_edge(int turn) { return 9 + (next_rand() % 63); }
int gen_center(int turn) { return 30 + (next_rand() % 21); }
int gen_random(int turn) { return next_rand() % 81; }

int playout(int seed) {
  rng_state = seed;
  int i;
  for (i = 0; i < 81; i += 1) { board[i] = 0; }
  int score = 0;
  int turn;
  for (turn = 0; turn < 60; turn += 1) {
    int phase = turn / 16;
    if (phase > 3) { phase = 3; }
    int gen = gen_table[phase];
    int mv = gen(turn);
    if (board[mv] == 0) {
      board[mv] = 1 + (turn & 1);
      if ((turn & 1) == 0) { score += 1; }
      else { score -= 1; }
    }
  }
  return score;
}

int main() {
  gen_table[0] = (int)gen_corner;
  gen_table[1] = (int)gen_edge;
  gen_table[2] = (int)gen_center;
  gen_table[3] = (int)gen_random;
  int games = getparam(0);
  int total = 0;
  int g;
  for (g = 0; g < games; g += 1) {
    total += playout(1000 + g);
  }
  printf("gobmk games=%d total=%d\n", games, total);
  return 0;
}
'''

HMMER = r'''
// Profile-HMM Viterbi-style dynamic programming fill.
int match_score[32];
int dp_m[2048];     // (len+1) x states, rolling not needed at this size
int seq[64];
int rng_state;

int next_rand() {
  rng_state = rng_state * 1103515245 + 12345;
  return (rng_state >> 16) & 32767;
}

int max2(int a, int b) { if (a > b) { return a; } return b; }

int main() {
  int len = getparam(0);
  int states = getparam(1);
  rng_state = 61;
  int i;
  for (i = 0; i < states; i += 1) { match_score[i] = next_rand() % 8; }
  for (i = 0; i < len; i += 1) { seq[i] = next_rand() % 4; }
  int s;
  for (s = 0; s < states; s += 1) { dp_m[s] = 0; }
  int t;
  for (t = 1; t <= len; t += 1) {
    for (s = states - 1; s >= 1; s -= 1) {
      int diag = dp_m[(t - 1) * states + s - 1];
      int up = dp_m[(t - 1) * states + s];
      int emit = match_score[s] * (1 + seq[t - 1]);
      dp_m[t * states + s] = max2(diag + emit, up + emit / 2);
    }
    dp_m[t * states] = 0;
  }
  int best = 0;
  for (s = 0; s < states; s += 1) {
    best = max2(best, dp_m[len * states + s]);
  }
  printf("hmmer best=%d\n", best);
  return 0;
}
'''

SJENG = r'''
// Alpha-beta search over a synthetic game tree; evaluation functions
// are chosen through a small pointer table at the leaves.
int rng_state;
int eval_table[2];
int nodes_visited;

int next_rand() {
  rng_state = rng_state * 1103515245 + 12345;
  return (rng_state >> 16) & 32767;
}

int eval_material(int state) { return (state % 64) - 32; }
int eval_position(int state) { return (state % 96) - 48; }

int search(int state, int depth, int alpha, int beta) {
  nodes_visited += 1;
  if (depth == 0) {
    int ev = eval_table[state & 1];
    return ev(state);
  }
  int move;
  for (move = 0; move < 4; move += 1) {
    int child = state * 5 + move + 1;
    int score = -search(child % 100003, depth - 1, -beta, -alpha);
    if (score > alpha) { alpha = score; }
    if (alpha >= beta) { break; }
  }
  return alpha;
}

int main() {
  eval_table[0] = (int)eval_material;
  eval_table[1] = (int)eval_position;
  int depth = getparam(0);
  int best = search(12345, depth, -100000, 100000);
  printf("sjeng best=%d nodes=%d\n", best, nodes_visited);
  return 0;
}
'''

LIBQUANTUM = r'''
// Quantum register gate simulation on bitsets: pure bit-twiddling
// loops, zero indirect transfers.
int amp_re[256];
int amp_im[256];

int main() {
  int qubits = getparam(0);
  int gates = getparam(1);
  int size = 1 << qubits;
  int i;
  for (i = 0; i < size; i += 1) { amp_re[i] = 0; amp_im[i] = 0; }
  amp_re[0] = 1000;
  int g;
  for (g = 0; g < gates; g += 1) {
    int target = g % qubits;
    int mask = 1 << target;
    // "Hadamard-ish" integer butterfly on the target qubit.
    for (i = 0; i < size; i += 1) {
      if ((i & mask) == 0) {
        int j = i | mask;
        int a = amp_re[i];
        int b = amp_re[j];
        amp_re[i] = (a + b) * 7 / 10;
        amp_re[j] = (a - b) * 7 / 10;
        int c = amp_im[i];
        int d = amp_im[j];
        amp_im[i] = (c + d) * 7 / 10;
        amp_im[j] = (c - d) * 7 / 10;
      }
    }
    // CNOT chain.
    for (i = 0; i < size; i += 1) {
      if ((i & 1) == 1 && (i & mask) == 0) {
        int j = i | mask;
        int tmp = amp_re[i];
        amp_re[i] = amp_re[j];
        amp_re[j] = tmp;
      }
    }
  }
  int norm = 0;
  for (i = 0; i < size; i += 1) {
    norm += amp_re[i] * amp_re[i] + amp_im[i] * amp_im[i];
  }
  printf("libquantum norm=%d\n", norm);
  return 0;
}
'''

H264REF = r'''
// Macroblock transform + intra-prediction mode dispatch.
int32 block[256];
int32 coeff[256];
int pred_table[4];
int rng_state;

int next_rand() {
  rng_state = rng_state * 1103515245 + 12345;
  return (rng_state >> 16) & 32767;
}

int pred_dc(int x, int y) { return 128; }
int pred_h(int x, int y) { return 100 + y * 4; }
int pred_v(int x, int y) { return 100 + x * 4; }
int pred_plane(int x, int y) { return 90 + x * 2 + y * 2; }

int main() {
  pred_table[0] = (int)pred_dc;
  pred_table[1] = (int)pred_h;
  pred_table[2] = (int)pred_v;
  pred_table[3] = (int)pred_plane;
  int mbs = getparam(0);
  rng_state = 71;
  int sad_total = 0;
  int mb;
  for (mb = 0; mb < mbs; mb += 1) {
    int mode = next_rand() % 4;
    int pred = pred_table[mode];
    int x;
    for (x = 0; x < 16; x += 1) {
      int y;
      for (y = 0; y < 16; y += 1) {
        int actual = (next_rand() % 256);
        int p = pred(x, y);
        block[x * 16 + y] = actual - p;
      }
    }
    // Integer 4x4 "DCT-ish" transform per row.
    int r;
    for (r = 0; r < 16; r += 1) {
      int c;
      for (c = 0; c < 16; c += 4) {
        int a = block[r * 16 + c];
        int b = block[r * 16 + c + 1];
        int cc = block[r * 16 + c + 2];
        int d = block[r * 16 + c + 3];
        coeff[r * 16 + c] = a + b + cc + d;
        coeff[r * 16 + c + 1] = 2 * a + b - cc - 2 * d;
        coeff[r * 16 + c + 2] = a - b - cc + d;
        coeff[r * 16 + c + 3] = a - 2 * b + 2 * cc - d;
      }
    }
    int i;
    for (i = 0; i < 256; i += 1) {
      int v = coeff[i];
      if (v < 0) { v = -v; }
      sad_total += v;
    }
  }
  printf("h264ref mbs=%d sad=%d\n", mbs, sad_total);
  return 0;
}
'''

ASTAR = r'''
// Grid pathfinding with a binary-heap open list.
int grid[1024];       // 32x32 costs
int dist[1024];
int heap_node[1024];
int heap_key[1024];
int heap_size;
int rng_state;

int next_rand() {
  rng_state = rng_state * 1103515245 + 12345;
  return (rng_state >> 16) & 32767;
}

void heap_push(int node, int key) {
  int i = heap_size;
  heap_size += 1;
  heap_node[i] = node;
  heap_key[i] = key;
  while (i > 0) {
    int parent = (i - 1) / 2;
    if (heap_key[parent] <= heap_key[i]) { break; }
    int tn = heap_node[parent]; heap_node[parent] = heap_node[i];
    heap_node[i] = tn;
    int tk = heap_key[parent]; heap_key[parent] = heap_key[i];
    heap_key[i] = tk;
    i = parent;
  }
}

int heap_pop() {
  int top = heap_node[0];
  heap_size -= 1;
  heap_node[0] = heap_node[heap_size];
  heap_key[0] = heap_key[heap_size];
  int i = 0;
  while (1) {
    int l = 2 * i + 1;
    int r = 2 * i + 2;
    int smallest = i;
    if (l < heap_size && heap_key[l] < heap_key[smallest]) { smallest = l; }
    if (r < heap_size && heap_key[r] < heap_key[smallest]) { smallest = r; }
    if (smallest == i) { break; }
    int tn = heap_node[smallest]; heap_node[smallest] = heap_node[i];
    heap_node[i] = tn;
    int tk = heap_key[smallest]; heap_key[smallest] = heap_key[i];
    heap_key[i] = tk;
    i = smallest;
  }
  return top;
}

int main() {
  int dim = getparam(0);
  rng_state = 81;
  int i;
  for (i = 0; i < dim * dim; i += 1) {
    grid[i] = 1 + (next_rand() % 9);
    dist[i] = 1000000;
  }
  dist[0] = 0;
  heap_size = 0;
  heap_push(0, 0);
  int popped = 0;
  while (heap_size > 0) {
    int u = heap_pop();
    popped += 1;
    int ux = u / dim;
    int uy = u % dim;
    int d;
    for (d = 0; d < 4; d += 1) {
      int vx = ux;
      int vy = uy;
      if (d == 0) { vx += 1; }
      if (d == 1) { vx -= 1; }
      if (d == 2) { vy += 1; }
      if (d == 3) { vy -= 1; }
      if (vx < 0 || vx >= dim || vy < 0 || vy >= dim) { continue; }
      int v = vx * dim + vy;
      int nd = dist[u] + grid[v];
      if (nd < dist[v]) {
        dist[v] = nd;
        heap_push(v, nd);
      }
    }
  }
  printf("astar goal=%d popped=%d\n", dist[dim * dim - 1], popped);
  return 0;
}
'''

XALANCBMK = r'''
// XML-ish token scanner.  The error-recovery path (never executed on
// well-formed input) reads the TLS base register -- a construct the
// strict IR translator cannot represent, so Polynima's lift fails on
// this superfluous code path while lenient lifters plant a trap.
int tags;
int text_chars;

int diagnostic_cookie() {
  // Superfluous path: thread-identity hash for an error log.
  return __builtin_rdtls() & 65535;
}

int main() {
  char *src = (char*)input_data();
  int len = input_size();
  int depth = 0;
  int bad = 0;
  int i = 0;
  while (i < len) {
    char c = src[i];
    if (c == '<') {
      if (i + 1 < len && src[i + 1] == '/') { depth -= 1; }
      else { depth += 1; }
      tags += 1;
      while (i < len && src[i] != '>') { i += 1; }
    } else {
      text_chars += 1;
    }
    i += 1;
  }
  if (depth != 0) {
    bad = diagnostic_cookie();
  }
  printf("xalancbmk tags=%d text=%d bad=%d\n", tags, text_chars, bad);
  return 0;
}
'''


def _blob_inputs(builder):
    return {
        "small": lambda: InputSpec(input_blob=builder("small")),
        "medium": lambda: InputSpec(input_blob=builder("medium")),
        "large": lambda: InputSpec(input_blob=builder("large")),
    }


def _bzip2_blob(size: str) -> bytes:
    n = {"small": 512, "medium": 1536, "large": 4096}[size]
    raw = bytearray()
    base = lcg_bytes(3, n)
    for i, b in enumerate(base):
        # Mix runs and noise so different block modes get picked.
        if (i // 32) % 3 == 0:
            raw.append(65 + (i // 64) % 4)
        else:
            raw.append(b % 64 + 32)
    return bytes(raw[:4096])


def _gcc_blob(size: str) -> bytes:
    count = {"small": 6, "medium": 18, "large": 40}[size]
    state = 9
    exprs = []
    for i in range(count):
        state = (state * 48271) % 0x7FFFFFFF
        a, b, c = state % 90 + 1, state % 55 + 1, state % 13 + 1
        op1 = "+-*/&|^%"[state % 8]
        op2 = "+-*"[state % 3]
        exprs.append(f"({a}{op1}{b}){op2}{c}")
    return (";".join(exprs)).encode()


def _xml_blob(size: str) -> bytes:
    count = {"small": 12, "medium": 40, "large": 100}[size]
    parts = []
    for i in range(count):
        parts.append(f"<node{i}>value {i}</node{i}>")
    return ("<root>" + "".join(parts) + "</root>").encode()


SPEC_WORKLOADS: List[Workload] = [
    Workload("bzip2", "spec", BZIP2, multithreaded=False,
             inputs=_blob_inputs(_bzip2_blob)),
    Workload("gcc", "spec", GCC, multithreaded=False,
             inputs=_blob_inputs(_gcc_blob)),
    Workload("mcf", "spec", MCF, multithreaded=False, inputs={
        "small": lambda: InputSpec(params=(16,)),
        "medium": lambda: InputSpec(params=(32,)),
        "large": lambda: InputSpec(params=(48,)),
    }),
    Workload("gobmk", "spec", GOBMK, multithreaded=False, inputs={
        "small": lambda: InputSpec(params=(4,)),
        "medium": lambda: InputSpec(params=(12,)),
        "large": lambda: InputSpec(params=(30,)),
    }),
    Workload("hmmer", "spec", HMMER, multithreaded=False, inputs={
        "small": lambda: InputSpec(params=(24, 12)),
        "medium": lambda: InputSpec(params=(48, 20)),
        "large": lambda: InputSpec(params=(63, 31)),
    }),
    Workload("sjeng", "spec", SJENG, multithreaded=False, inputs={
        "small": lambda: InputSpec(params=(5,)),
        "medium": lambda: InputSpec(params=(7,)),
        "large": lambda: InputSpec(params=(8,)),
    }),
    Workload("libquantum", "spec", LIBQUANTUM, multithreaded=False, inputs={
        "small": lambda: InputSpec(params=(5, 8)),
        "medium": lambda: InputSpec(params=(7, 12)),
        "large": lambda: InputSpec(params=(8, 16)),
    }),
    Workload("h264ref", "spec", H264REF, multithreaded=False, inputs={
        "small": lambda: InputSpec(params=(2,)),
        "medium": lambda: InputSpec(params=(6,)),
        "large": lambda: InputSpec(params=(12,)),
    }),
    Workload("astar", "spec", ASTAR, multithreaded=False, inputs={
        "small": lambda: InputSpec(params=(12,)),
        "medium": lambda: InputSpec(params=(20,)),
        "large": lambda: InputSpec(params=(32,)),
    }),
    Workload("xalancbmk", "spec", XALANCBMK, multithreaded=False,
             inputs=_blob_inputs(_xml_blob)),
]
