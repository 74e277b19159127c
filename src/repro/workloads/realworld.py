"""Real-world-style multithreaded utilities (Table 1's top half).

* ``lightftp`` — an FTP server with the CVE-2023-24042 synchronisation
  bug: the session context (requested file name) is a *shared global
  reused across handler threads*, so a USER command can overwrite the
  path a blocked LIST handler will use once its data connection
  arrives (§4.1's exploit sequence).
* ``memcached`` — a key-value store: worker threads apply scripted
  get/set operations to a hash table with per-bucket mutexes.
* ``pigz`` — parallel compression: worker threads RLE-compress chunks
  of the input.
* ``mongoose`` — a web server: per-connection handler threads serve
  files over the scripted network.
"""

from __future__ import annotations

from typing import List

from .base import InputSpec, Workload, lcg_bytes

LIGHTFTP = r'''
char context_filename[64];   // SHARED across handler threads (the bug)
char context_user[32];
char line[128];
char entry[64];
char reply[128];
int handler_done_count;
int sessions_served;

int streq(char *a, char *b) {
  int i = 0;
  while (a[i] != 0 && b[i] != 0) {
    if (a[i] != b[i]) { return 0; }
    i += 1;
  }
  return a[i] == b[i];
}

void send_str(int conn, char *s) {
  net_send(conn, s, strlen(s));
}

// The LIST handler: blocks until the data connection arrives, then
// uses context_filename -- which another command may have overwritten
// meanwhile (CVE-2023-24042).
int list_thread(int *argp) {
  int conn = (int)argp;
  net_wait_data(conn);
  int dirh = fs_opendir(context_filename);
  if (dirh != 0) {
    while (fs_readdir(dirh, entry) == 1) {
      send_str(conn, entry);
      send_str(conn, "\n");
    }
    fs_closedir(dirh);
  } else {
    // Path is not a directory: leak its contents (exploit effect).
    int fh = fs_open(context_filename);
    if (fh >= 0) {
      char buf[64];
      int got = fs_read(fh, buf, 60);
      while (got > 0) {
        net_send(conn, buf, got);
        got = fs_read(fh, buf, 60);
      }
      fs_close(fh);
    } else {
      send_str(conn, "550 not found\n");
    }
  }
  send_str(conn, "226 done\n");
  __sync_fetch_and_add(&handler_done_count, 1);
  return 0;
}

void handle_session(int conn) {
  int pending_handlers = 0;
  int tids[4];
  while (1) {
    int got = net_recv(conn, line, 120);
    if (got <= 0) { break; }
    line[got] = 0;
    if (line[0] == 'U') {            // USER <name>
      // CVE: the parameter is copied into the shared context with no
      // checks, clobbering whatever a pending handler will read.
      strcpy(context_user, line + 5);
      strcpy(context_filename, line + 5);
      send_str(conn, "331 ok\n");
    }
    if (line[0] == 'L') {            // LIST <path>
      strcpy(context_filename, line + 5);
      if (fs_stat(context_filename) == 0) {
        pthread_create(&tids[pending_handlers], 0, list_thread,
                       (int*)conn);
        pending_handlers += 1;
        send_str(conn, "150 opening\n");
      } else {
        send_str(conn, "550 no such dir\n");
      }
    }
    if (line[0] == 'R') {            // RETR <path>
      strcpy(context_filename, line + 5);
      int fh = fs_open(context_filename);
      if (fh >= 0) {
        char buf[64];
        int got2 = fs_read(fh, buf, 60);
        while (got2 > 0) {
          net_send(conn, buf, got2);
          got2 = fs_read(fh, buf, 60);
        }
        fs_close(fh);
        send_str(conn, "226 sent\n");
      } else {
        send_str(conn, "550 not found\n");
      }
    }
    if (line[0] == 'Q') {            // QUIT
      // Drain pending handlers before the goodbye so the reply
      // stream is well ordered.
      int t;
      for (t = 0; t < pending_handlers; t += 1) {
        pthread_join(tids[t], 0);
      }
      pending_handlers = 0;
      send_str(conn, "221 bye\n");
      break;
    }
  }
  int t2;
  for (t2 = 0; t2 < pending_handlers; t2 += 1) {
    pthread_join(tids[t2], 0);
  }
}

int main() {
  while (1) {
    int conn = net_accept();
    if (conn < 0) { break; }
    handle_session(conn);
    sessions_served += 1;
  }
  printf("lightftp sessions=%d handlers=%d\n",
         sessions_served, handler_done_count);
  return 0;
}
'''

MEMCACHED = r'''
int keys[512];
int values[512];
int bucket_mutex[16];
int hits;
int misses;
int stores;
int stat_mutex;
int nthreads;
int nops;

int op_kind[1024];    // 0 = set, 1 = get
int op_key[1024];
int op_value[1024];
int rng_state;

int next_rand() {
  rng_state = rng_state * 1103515245 + 12345;
  return (rng_state >> 16) & 32767;
}

void gen_ops() {
  int i;
  for (i = 0; i < nops; i += 1) {
    op_kind[i] = (next_rand() % 10) < 2 ? 0 : 1;   // 20% sets
    // Sets stay within the preloaded range so get outcomes do not
    // depend on thread interleaving (hits/misses are deterministic).
    if (op_kind[i] == 0) {
      op_key[i] = 1 + (next_rand() % 64);
    } else {
      op_key[i] = 1 + (next_rand() % 96);
    }
    op_value[i] = next_rand();
  }
}

void do_set(int key, int value) {
  int slot = key % 512;
  int bucket = slot % 16;
  pthread_mutex_lock(&bucket_mutex[bucket]);
  while (keys[slot] != 0 && keys[slot] != key) {
    slot = (slot + 1) % 512;
  }
  keys[slot] = key;
  values[slot] = value;
  pthread_mutex_unlock(&bucket_mutex[bucket]);
  pthread_mutex_lock(&stat_mutex);
  stores += 1;
  pthread_mutex_unlock(&stat_mutex);
}

int do_get(int key) {
  int slot = key % 512;
  int bucket = slot % 16;
  int found = 0;
  pthread_mutex_lock(&bucket_mutex[bucket]);
  int probes = 0;
  while (keys[slot] != 0 && probes < 512) {
    if (keys[slot] == key) { found = 1; break; }
    slot = (slot + 1) % 512;
    probes += 1;
  }
  pthread_mutex_unlock(&bucket_mutex[bucket]);
  pthread_mutex_lock(&stat_mutex);
  if (found) { hits += 1; } else { misses += 1; }
  pthread_mutex_unlock(&stat_mutex);
  return found;
}

int mc_worker(int *argp) {
  int tid = (int)argp;
  int lo = nops * tid / nthreads;
  int hi = nops * (tid + 1) / nthreads;
  int i;
  for (i = lo; i < hi; i += 1) {
    if (op_kind[i] == 0) {
      do_set(op_key[i], op_value[i]);
    } else {
      do_get(op_key[i]);
    }
  }
  return 0;
}

int main() {
  nops = getparam(0);
  nthreads = getparam(1);
  rng_state = 41;
  int i;
  pthread_mutex_init(&stat_mutex, 0);
  for (i = 0; i < 16; i += 1) { pthread_mutex_init(&bucket_mutex[i], 0); }
  // Preload some keys so gets can hit.
  for (i = 1; i <= 64; i += 1) { do_set(i, i * 100); }
  stores = 0;
  gen_ops();
  int tids[8];
  int t;
  for (t = 0; t < nthreads; t += 1) {
    pthread_create(&tids[t], 0, mc_worker, (int*)t);
  }
  for (t = 0; t < nthreads; t += 1) {
    pthread_join(tids[t], 0);
  }
  printf("memcached ops=%d hits=%d misses=%d stores=%d\n",
         nops, hits, misses, stores);
  return 0;
}
'''

PIGZ = r'''
char outbuf[16384];
int chunk_out_len[8];
int chunk_out_off[8];
int nchunks;
int chunk_size;
int input_len;

// Run-length compress one chunk into its slice of outbuf.
int deflate_worker(int *argp) {
  int chunk = (int)argp;
  char *src = (char*)input_data();
  int lo = chunk * chunk_size;
  int hi = lo + chunk_size;
  if (hi > input_len) { hi = input_len; }
  int out = chunk_out_off[chunk];
  int i = lo;
  while (i < hi) {
    char b = src[i];
    int run = 1;
    while (i + run < hi && src[i + run] == b && run < 255) {
      run += 1;
    }
    outbuf[out] = run;
    outbuf[out + 1] = b;
    out += 2;
    i += run;
  }
  chunk_out_len[chunk] = out - chunk_out_off[chunk];
  return 0;
}

int main() {
  nchunks = getparam(0);
  input_len = input_size();
  chunk_size = (input_len + nchunks - 1) / nchunks;
  int c;
  for (c = 0; c < nchunks; c += 1) {
    chunk_out_off[c] = c * (chunk_size * 2 + 8);
  }
  int tids[8];
  for (c = 0; c < nchunks; c += 1) {
    pthread_create(&tids[c], 0, deflate_worker, (int*)c);
  }
  for (c = 0; c < nchunks; c += 1) {
    pthread_join(tids[c], 0);
  }
  int total = 0;
  int checksum = 0;
  for (c = 0; c < nchunks; c += 1) {
    total += chunk_out_len[c];
    int i;
    for (i = 0; i < chunk_out_len[c]; i += 1) {
      checksum = (checksum * 31 + outbuf[chunk_out_off[c] + i])
                 % 1000003;
    }
  }
  printf("pigz in=%d out=%d checksum=%d\n", input_len, total, checksum);
  return 0;
}
'''

MONGOOSE = r'''
char paths[512];          // 8 connections x 64 bytes
int served;
int errors;
int stat_mutex;

int conn_thread(int *argp) {
  int conn = (int)argp;
  char line[128];
  char body[64];
  while (1) {
    int got = net_recv(conn, line, 120);
    if (got <= 0) { break; }
    line[got] = 0;
    // Parse "GET /path".
    if (line[0] != 'G') {
      net_send(conn, "400 bad\n", 8);
      continue;
    }
    char *path = paths + conn * 64;
    int i = 4;
    int j = 0;
    while (line[i] != 0 && line[i] != ' ' && j < 60) {
      path[j] = line[i];
      i += 1;
      j += 1;
    }
    path[j] = 0;
    int fh = fs_open(path);
    if (fh < 0) {
      net_send(conn, "404 not found\n", 14);
      pthread_mutex_lock(&stat_mutex);
      errors += 1;
      pthread_mutex_unlock(&stat_mutex);
      continue;
    }
    net_send(conn, "200 ok\n", 7);
    int n = fs_read(fh, body, 60);
    while (n > 0) {
      net_send(conn, body, n);
      n = fs_read(fh, body, 60);
    }
    fs_close(fh);
    pthread_mutex_lock(&stat_mutex);
    served += 1;
    pthread_mutex_unlock(&stat_mutex);
  }
  return 0;
}

int main() {
  pthread_mutex_init(&stat_mutex, 0);
  int tids[8];
  int nconns = 0;
  while (1) {
    int conn = net_accept();
    if (conn < 0) { break; }
    pthread_create(&tids[nconns], 0, conn_thread, (int*)conn);
    nconns += 1;
  }
  int t;
  for (t = 0; t < nconns; t += 1) {
    pthread_join(tids[t], 0);
  }
  printf("mongoose conns=%d served=%d errors=%d\n",
         nconns, served, errors);
  return 0;
}
'''


_FTP_FS = {
    "/pub/readme.txt": b"hello world\n",
    "/pub/data.bin": b"DATA",
    "/etc/passwd": b"root:x:0:0\nsvc:x:99:99\n",
}


def ftp_benign_script() -> List[List[tuple]]:
    """A scripted benign FTP session (login, LIST, RETR, QUIT) per client."""
    return [
        [
            ("msg", b"USER alice\x00"),
            ("msg", b"LIST /pub\x00"),
            ("data_connect",),
            ("msg", b"QUIT\x00"),
        ],
        [
            ("msg", b"USER bob\x00"),
            ("msg", b"RETR /pub/readme.txt\x00"),
            ("msg", b"QUIT\x00"),
        ],
    ]


def ftp_exploit_script() -> List[List[tuple]]:
    """The §4.1 exploit: LIST blocks a handler, USER overwrites the
    shared context, the data connection unblocks the handler which then
    leaks /etc/passwd."""
    return [[
        ("msg", b"LIST /pub\x00"),
        ("msg", b"USER /etc/passwd\x00"),
        ("data_connect",),
        ("msg", b"QUIT\x00"),
    ]]


def _http_script() -> List[List[tuple]]:
    return [
        [("msg", b"GET /index.html\x00"), ("msg", b"GET /a.txt\x00")],
        [("msg", b"GET /a.txt\x00")],
        [("msg", b"GET /missing\x00"), ("msg", b"GET /index.html\x00")],
    ]


_HTTP_FS = {
    "/index.html": b"<html>hi</html>",
    "/a.txt": b"alpha beta",
}


REALWORLD_WORKLOADS = [
    Workload("lightftp", "realworld", LIGHTFTP, inputs={
        "small": lambda: InputSpec(fs=dict(_FTP_FS),
                                   net_script=ftp_benign_script()),
        "exploit": lambda: InputSpec(fs=dict(_FTP_FS),
                                     net_script=ftp_exploit_script()),
    }),
    Workload("memcached", "realworld", MEMCACHED, inputs={
        "small": lambda: InputSpec(params=(256, 4)),
        "medium": lambda: InputSpec(params=(512, 4)),
        "large": lambda: InputSpec(params=(1024, 8)),
    }),
    Workload("pigz", "realworld", PIGZ, inputs={
        "small": lambda: InputSpec(params=(4,),
                                   input_blob=lcg_bytes(5, 1024)),
        "medium": lambda: InputSpec(params=(4,),
                                    input_blob=lcg_bytes(5, 2048)),
        "large": lambda: InputSpec(params=(8,),
                                   input_blob=lcg_bytes(5, 4096)),
    }),
    Workload("mongoose", "realworld", MONGOOSE, inputs={
        "small": lambda: InputSpec(fs=dict(_HTTP_FS),
                                   net_script=_http_script()),
    }),
]
