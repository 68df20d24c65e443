/* The match kernel in C, line for line the pure-Python one in _kernels.py.
 *
 * bmn_play_loops is play_match_loops: _py_run's trick loop on ring-buffer
 * decks, Brent's cycle detector with the same first block and trick limit,
 * and _py_transient's lockstep pass. bmn_simulate is simulate_batch: the
 * splitmix64 Fisher-Yates deal of SplitMix64.shuffle (masked rejection as
 * in SplitMix64.below), then play_match_loops with A leading.
 * bmn_factory is factory._rounds, the loop factory's whole round loop: the
 * restarts, escapes and checkpoint store, the draws on the factory's
 * splitmix64 stream, generate_sequences' fragments, and the insertion and
 * correction tests, each a play_match_loops with A leading.
 * bmn_search is search, the whole breadth-first backward search over
 * states packed as _kernels.pack packs them; it returns the states found
 * and their depths. Its step is _py_step, the inverse of a trick: the
 * closing-block test, then _parse_pile on every bottom slice of the
 * winner's deck, each parse packed the same way as a predecessor.
 * Results are bit for bit the Python ones. _kernels compiles this file with
 * `cc -O2 -shared -fPIC` and calls it through ctypes; it uses no Python API.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_CARDS 1024 /* cards in play; a power of two, the rings' size */
#define FIRST_BLOCK 64 /* _BRENT_FIRST_BLOCK */
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define HEADER 5      /* bytes ahead of the cards in a packed state */

typedef struct {
    uint8_t card[2][MAX_CARDS]; /* deck p is card[p][head[p]], ... */
    uint32_t head[2], len[2];
    uint32_t mask;              /* ring index mask: a power of two minus one */
    int cur;                    /* the player leading the next trick */
} game_t;

static void load(game_t *g, const uint8_t *a, uint32_t na, const uint8_t *b,
                 uint32_t nb, int leader)
{
    uint32_t ring = 1;
    while (ring < na + nb)
        ring *= 2;
    g->mask = ring - 1;
    memcpy(g->card[0], a, na);
    memcpy(g->card[1], b, nb);
    g->head[0] = g->head[1] = 0;
    g->len[0] = na;
    g->len[1] = nb;
    g->cur = leader;
}

static int same(const game_t *x, const game_t *y)
{
    if (x->cur != y->cur || x->len[0] != y->len[0])
        return 0;
    for (int p = 0; p < 2; p++)
        for (uint32_t i = 0; i < x->len[p]; i++)
            if (x->card[p][(x->head[p] + i) & x->mask]
                    != y->card[p][(y->head[p] + i) & y->mask])
                return 0;
    return 1;
}

/* _py_run: play up to n tricks; status 0 = ended (g->cur won), 1 = reached
 * the state `watch` at a trick boundary, 2 = played n tricks. */
static int run(game_t *g, int64_t n, const game_t *watch, int64_t *played)
{
    uint8_t pile[MAX_CARDS];
    uint32_t mask = g->mask;
    int cur = g->cur;
    int64_t tricks = 0;
    while (tricks < n) {
        int pending = 0, challenger = 0, winner;
        uint32_t np = 0;
        for (;;) {
            if (g->len[cur] == 0) {
                /* required to flip from an empty deck: the other player wins */
                winner = 1 - cur;
                break;
            }
            uint8_t card = g->card[cur][g->head[cur]];
            g->head[cur] = (g->head[cur] + 1) & mask;
            g->len[cur]--;
            pile[np++] = card;
            if (card > 0) {
                challenger = cur;
                pending = card;
                cur = 1 - cur;
            } else if (pending > 0) {
                if (--pending == 0) {
                    winner = challenger;
                    break;
                }
            } else {
                cur = 1 - cur;
            }
        }
        uint32_t tail = g->head[winner] + g->len[winner];
        for (uint32_t i = 0; i < np; i++)
            g->card[winner][(tail + i) & mask] = pile[i];
        g->len[winner] += np;
        tricks++;
        cur = winner;
        g->cur = cur;
        if (g->len[1 - winner] == 0) {
            *played = tricks;
            return 0;
        }
        if (watch && same(g, watch)) {
            *played = tricks;
            return 1;
        }
    }
    g->cur = cur;
    *played = tricks;
    return 2;
}

/* _py_transient: two copies of the match, `period` tricks apart, run in
 * lockstep; -1 once the transient would exceed max_transient. */
static int64_t transient(const uint8_t *a, uint32_t na, const uint8_t *b, uint32_t nb,
                         int leader, int64_t period, int64_t max_transient)
{
    game_t behind, ahead;
    int64_t played, t = 0;
    load(&behind, a, na, b, nb, leader);
    load(&ahead, a, na, b, nb, leader);
    run(&ahead, period, NULL, &played);
    while (!same(&behind, &ahead)) {
        if (t == max_transient)
            return -1;
        run(&behind, 1, NULL, &played);
        run(&ahead, 1, NULL, &played);
        t++;
    }
    return t;
}

/* play_match_loops: returns the status and writes (a, b) of the result. */
static int play(const uint8_t *a, uint32_t na, const uint8_t *b, uint32_t nb,
                int leader, int64_t max_tricks, int64_t *out)
{
    game_t g, saved;
    int64_t tricks, played;
    load(&g, a, na, b, nb, leader);
    int status = run(&g, FIRST_BLOCK, NULL, &tricks);
    if (status == 0) {
        if (tricks <= max_tricks) {
            out[0] = g.cur;
            out[1] = tricks;
            return 0;
        }
        goto over;
    }
    int64_t last = FIRST_BLOCK;
    while (last < max_tricks + FIRST_BLOCK - 1)
        last *= 2;
    int64_t limit = max_tricks + last;
    int64_t block = 2 * FIRST_BLOCK;
    while (tricks < limit) {
        saved = g;
        status = run(&g, block < limit - tricks ? block : limit - tricks, &saved, &played);
        tricks += played;
        if (status == 0) {
            if (tricks <= max_tricks) {
                out[0] = g.cur;
                out[1] = tricks;
                return 0;
            }
            break;
        }
        if (status == 1) {
            if (played <= max_tricks) {
                int64_t t = transient(a, na, b, nb, leader, played, max_tricks - played);
                if (t >= 0) {
                    out[0] = t;
                    out[1] = played;
                    return 1;
                }
            }
            break;
        }
        block *= 2;
    }
over:
    out[0] = -1;
    out[1] = max_tricks;
    return 2;
}

/* play_match_loops(a, b, leader, max_tricks): returns the status and
 * writes (a, b) of the result to out; -1 if na + nb > MAX_CARDS. */
int bmn_play_loops(const uint8_t *a, uint32_t na, const uint8_t *b, uint32_t nb,
                   int leader, int64_t max_tricks, int64_t *out)
{
    if ((uint64_t)na + nb > MAX_CARDS)
        return -1;
    return play(a, na, b, nb, leader, max_tricks, out);
}

static uint64_t fmix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* SplitMix64.next_u64 */
static uint64_t next_u64(uint64_t *state)
{
    *state += GOLDEN;
    return fmix64(*state);
}

/* SplitMix64.below: uniform in [0, n), n >= 1, by masked rejection; the
 * one draw of every Fisher-Yates shuffle here. */
static uint32_t below(uint64_t *state, uint32_t n)
{
    uint64_t mask = 1, r;
    while (mask < n) /* (1 << (n - 1).bit_length()) - 1 */
        mask *= 2;
    mask -= 1;
    do
        r = next_u64(state) & mask;
    while (r >= n);
    return (uint32_t)r;
}

/* SplitMix64.shuffle of items[0..n) */
static void shuffle(uint32_t *items, uint32_t n, uint64_t *state)
{
    for (uint32_t i = n; i-- > 1;) {
        uint32_t r = below(state, i + 1), top = items[i];
        items[i] = items[r];
        items[r] = top;
    }
}

/* simulate_batch(count, deck, seed, max_tricks, start) into durations and
 * winners; -1 if n > MAX_CARDS. Seed and start arrive reduced mod 2**64. */
int bmn_simulate(const uint8_t *deck, uint32_t n, uint64_t seed, uint64_t start,
                 int64_t count, int64_t max_tricks, int32_t *durations, int8_t *winners)
{
    uint8_t cards[MAX_CARDS];
    int64_t out[2];
    if (n > MAX_CARDS)
        return -1;
    for (int64_t k = 0; k < count; k++) {
        uint64_t state = fmix64(seed ^ fmix64(start + (uint64_t)k + 1));
        memcpy(cards, deck, n);
        for (uint32_t i = n; i-- > 1;) {
            uint32_t r = below(&state, i + 1);
            uint8_t top = cards[i];
            cards[i] = cards[r];
            cards[r] = top;
        }
        int status = play(cards, n / 2, cards + n / 2, n - n / 2, 0, max_tricks, out);
        winners[k] = (int8_t)(status == 0 ? out[0] : -status);
        durations[k] = (int32_t)out[1];
    }
    return 0;
}

/* _parse_pile: 1 if pile[0..np) is a complete natural trick ending
 * at its last card, with the cards the leader and the other player flipped
 * in played[0] and played[1], their counts in n, and whether the leader
 * won in *leader_won; 0 otherwise. */
static int parse_pile(const uint8_t *pile, uint32_t np, uint8_t played[2][MAX_CARDS],
                      uint32_t n[2], int *leader_won)
{
    int cur = 0, challenger = 0, pending = 0;
    n[0] = n[1] = 0;
    for (uint32_t i = 0; i < np; i++) {
        uint8_t card = pile[i];
        played[cur][n[cur]++] = card;
        if (card > 0) {
            challenger = cur;
            pending = card;
            cur = 1 - cur;
        } else if (pending > 0) {
            if (--pending == 0) {
                if (i != np - 1)
                    return 0; /* the trick would have ended before the pile did */
                *leader_won = challenger == 0;
                return 1;
            }
        } else {
            cur = 1 - cur;
        }
    }
    return 0; /* the pile ran out with the trick still open */
}

/* The breadth-first backward search of bmn_search: the states found, packed
 * one after another in states, indexed by an open-addressing table of
 * 1 + their index (0: an empty slot) with linear probing. The arrays grow by
 * doubling; the table keeps at least two slots per state. */
typedef struct {
    uint8_t *states;  /* state i is states[offsets[i] .. offsets[i + 1]) */
    int64_t *offsets, *depths, *table;
    int64_t n, room, cap, slots, max_nodes;
} search_t;

/* search's result, handed to the caller, who frees it with bmn_free. */
typedef struct {
    uint8_t *states;
    int64_t *offsets, *depths;
    int64_t n;
} found_t;

#define FIRST_ROOM 256 /* states the search's arrays hold at first */

static uint64_t hash(const uint8_t *p, int64_t n)
{
    uint64_t h = (uint64_t)n, word;
    for (; n >= 8; p += 8, n -= 8) {
        memcpy(&word, p, 8);
        h = fmix64(h ^ word);
    }
    word = 0;
    memcpy(&word, p, (size_t)n);
    return fmix64(h ^ word);
}

static void place(search_t *s, int64_t i, uint64_t h)
{
    uint64_t mask = (uint64_t)s->slots - 1;
    while (s->table[h & mask])
        h++;
    s->table[h & mask] = i + 1;
}

/* Room for twice the states, and a table rebuilt for it; 0 without memory. */
static int grow(search_t *s)
{
    int64_t room = 2 * s->room, *offsets, *depths, *table;
    if (!(offsets = realloc(s->offsets, (size_t)(room + 1) * sizeof *offsets)))
        return 0;
    s->offsets = offsets;
    if (!(depths = realloc(s->depths, (size_t)room * sizeof *depths)))
        return 0;
    s->depths = depths;
    if (!(table = calloc((size_t)(2 * room), sizeof *table)))
        return 0;
    free(s->table);
    s->table = table;
    s->room = room;
    s->slots = 2 * room;
    for (int64_t i = 0; i < s->n; i++)
        place(s, i, hash(s->states + offsets[i], offsets[i + 1] - offsets[i]));
    return 1;
}

/* Where the next state of `size` bytes goes, past the last one found;
 * NULL without memory. */
static uint8_t *tail(search_t *s, int64_t size)
{
    int64_t used = s->offsets[s->n], cap = s->cap;
    while (used + size > cap)
        cap *= 2;
    if (cap != s->cap) {
        uint8_t *states = realloc(s->states, (size_t)cap);
        if (!states)
            return NULL;
        s->states = states;
        s->cap = cap;
    }
    return s->states + used;
}

/* Keep the state written at tail(s, size) unless it was found before:
 * 1 if it is new, 0 if not, -1 without memory. */
static int add(search_t *s, int64_t size, int64_t depth)
{
    if (s->n == s->room && !grow(s))
        return -1;
    const uint8_t *p = s->states + s->offsets[s->n];
    uint64_t h = hash(p, size), mask = (uint64_t)s->slots - 1;
    for (int64_t j; (j = s->table[h & mask]); h++) {
        int64_t at = s->offsets[j - 1];
        if (s->offsets[j] - at == size && memcmp(s->states + at, p, (size_t)size) == 0)
            return 0;
    }
    s->table[h & mask] = s->n + 1;
    s->depths[s->n] = depth;
    s->offsets[s->n + 1] = s->offsets[s->n] + size;
    s->n++;
    return 1;
}

/* The predecessors of the packed state t, added to the search at `depth`:
 * 1 once the search is at its node budget, -1 without memory, 0 otherwise.
 * The target's leader won the trick before it. Each bottom slice of the
 * leader's deck that parse_pile reads as a trick is pushed back on top of
 * its players' decks, giving one predecessor, in order of pile length; a
 * target with an empty deck, or whose leader's deck does not end in a
 * closing block (k ordinaries after a rank-k special), has none. */
static int step(search_t *s, const uint8_t *t, int64_t depth)
{
    uint8_t played[2][MAX_CARDS];
    uint32_t np[2];
    int leader_won, winner = t[0];
    uint32_t na = t[1] | t[2] << 8, nb = t[3] | t[4] << 8, size = HEADER + na + nb;
    const uint8_t *w = t + HEADER + (winner ? na : 0), *l = t + HEADER + (winner ? 0 : na);
    uint32_t nw = winner ? nb : na, nl = winner ? na : nb, k = 0;
    while (k < nw && w[nw - 1 - k] == 0)
        k++;
    if (nl == 0 || k == 0 || k == nw || w[nw - 1 - k] != k)
        return 0;
    for (uint32_t plen = 1; plen <= nw; plen++) {
        uint32_t rest = nw - plen;
        /* Every parse is a predecessor, with no trick played to confirm
         * it: the pile is a complete trick ending at its last card. With
         * each player's parsed cards back on top of their deck, the
         * trick flips the same cards in the same order, never from an
         * empty deck, and ends at the same card. The challenger wins and
         * puts the pile under the rest of w, which gives w again. The
         * loser keeps l, not empty (nl > 0), so the trick is not terminal. */
        if (!parse_pile(w + rest, plen, played, np, &leader_won))
            continue;
        const uint8_t *won = played[!leader_won], *lost = played[leader_won];
        uint32_t n_won = np[!leader_won], n_lost = np[leader_won];
        uint8_t *p = tail(s, size);
        if (!p)
            return -1;
        uint32_t n_a = winner ? n_lost + nl : n_won + rest, n_b = na + nb - n_a;
        uint8_t *pw = p + HEADER + (winner ? n_a : 0), *pl = p + HEADER + (winner ? 0 : n_a);
        p[0] = leader_won ? winner : !winner;
        p[1] = n_a & 255;
        p[2] = n_a >> 8;
        p[3] = n_b & 255;
        p[4] = n_b >> 8;
        memcpy(pw, won, n_won);
        memcpy(pw + n_won, w, rest);
        memcpy(pl, lost, n_lost);
        memcpy(pl + n_lost, l, nl);
        int added = add(s, size, depth);
        if (added < 0)
            return -1;
        if (added && s->n >= s->max_nodes)
            return 1;
    }
    return 0;
}

/* search(seeds, max_depth, max_nodes) on the n packed states read one after
 * another from seeds, each led by the winner of the trick before it. A
 * packed state is _kernels.pack's: a HEADER of the leader and the lengths of
 * decks A and B (16 bits each, low byte first), then A's cards and then B's.
 * Every distinct seed is found first, at depth 0; each later level holds the
 * predecessors of the level before, in its order and then by pile length,
 * that were not found before. The search stops after max_depth levels or as
 * soon as max_nodes states are found (the seeds are all kept). Writes the
 * states found and their depths to *found, to be freed with bmn_free, and
 * returns 0; returns -1 for a seed past MAX_CARDS and -2 without memory,
 * with nothing to free. */
int bmn_search(const uint8_t *seeds, int64_t n, int64_t max_depth, int64_t max_nodes,
               found_t *found)
{
    uint8_t t[HEADER + MAX_CARDS];
    search_t s = {0};
    int status = 0;
    s.max_nodes = max_nodes;
    s.room = FIRST_ROOM;
    s.slots = 2 * FIRST_ROOM;
    s.cap = 16 * FIRST_ROOM;
    s.states = malloc((size_t)s.cap);
    s.offsets = calloc(FIRST_ROOM + 1, sizeof *s.offsets);
    s.depths = malloc(FIRST_ROOM * sizeof *s.depths);
    s.table = calloc(2 * FIRST_ROOM, sizeof *s.table);
    if (!s.states || !s.offsets || !s.depths || !s.table)
        goto fail;
    for (int64_t i = 0; i < n; i++) {
        uint32_t size = HEADER + (seeds[1] | seeds[2] << 8) + (seeds[3] | seeds[4] << 8);
        uint8_t *p;
        if (size > HEADER + MAX_CARDS) {
            status = -1;
            goto fail;
        }
        if (!(p = tail(&s, size)))
            goto fail;
        memcpy(p, seeds, size);
        seeds += size;
        if (add(&s, size, 0) < 0)
            goto fail;
    }
    for (int64_t depth = 1, start = 0, end = s.n;
         start < end && depth <= max_depth && s.n < max_nodes;
         depth++, start = end, end = s.n) {
        for (int64_t i = start; i < end; i++) {
            /* a copy: the states found may move as they grow */
            memcpy(t, s.states + s.offsets[i], (size_t)(s.offsets[i + 1] - s.offsets[i]));
            int stop = step(&s, t, depth);
            if (stop < 0)
                goto fail;
            if (stop)
                goto done;
        }
    }
done:
    free(s.table);
    found->states = s.states;
    found->offsets = s.offsets;
    found->depths = s.depths;
    found->n = s.n;
    return 0;
fail:
    free(s.states);
    free(s.offsets);
    free(s.depths);
    free(s.table);
    return status ? status : -2;
}

/* Frees what bmn_search wrote to *found. */
void bmn_free(found_t *found)
{
    free(found->states);
    free(found->offsets);
    free(found->depths);
}

/* The loop factory: bmn_factory is factory._rounds, line for line. */

#define MAX_TYPES 10     /* card types: ordinaries (0) and ranks 1..9 */
#define MAX_TEMPLATES 81 /* of one pattern: mixed10's over nine ranks */
/* The factory's helpers stay out of bmn_factory: each runs once a round at
 * most, and inlining them all raised the compiler's peak memory from 40 to
 * 43 MB (gcc 12, -O2), more than a process running the benchmark uses. */
#define OUTLINE __attribute__((noinline))

/* The tuning constants, in the order factory._c_rounds passes them. */
enum { MAX_FRAGMENTS, MAX_POSITIONS, RESTART_INTERVAL, ESCAPE_THRESHOLD, CAPACITY };
/* The rank orders, in factory._ORDERS order. */
enum { ASCENDING, DESCENDING, LARGEST_DEFICIT, ORDINARIES_FIRST };

/* _pattern_fragments' templates, in factory._PATTERNS order, as groups of
 * shapes: C is an ordinary, r and s are ranks. A group is written out for
 * each pair of distinct ranks (r, s) if it names s, for each rank r if it
 * names r, and once otherwise; the ranks go in the order given. */
static const char *const PATTERN[][5] = {
    {"r", "C"},                    /* single */
    {"rr", "Cr", "rC", "CC"},      /* pairs */
    {"CrC", "CCr", "rCC", "CCC"},  /* triplets */
    {"CCCCC"},                     /* burst5 */
    {"CCCCCCC"},                   /* burst7 */
    {"CCCCCCCCCC"},                /* burst10 */
    {"CrCrC"},                     /* interleaved */
    {"CCr CCCr CCCCr"},            /* rank-terminated */
    {"CCCrCCC CrC CCrCC", "CrrC"}, /* mixed7 */
    {"CCCCrCCCCC", "CCrCCsCC"},    /* mixed10 */
};

typedef struct {
    uint32_t len;
    uint8_t card[10];
} frag_t;

/* _pattern_fragments(pattern, ranks[0..nr)) into out; returns the count. */
OUTLINE static int templates(int pattern, const uint8_t *ranks, int nr, frag_t *out)
{
    int n = 0;
    for (const char *const *group = PATTERN[pattern]; *group; group++) {
        int pairs = strchr(*group, 's') != NULL, each = pairs || strchr(*group, 'r');
        for (int i = 0; i < (each ? nr : 1); i++)
            for (int j = 0; j < (pairs ? nr : 1); j++) {
                if (pairs && i == j)
                    continue;
                for (const char *c = *group; *c; c++) {
                    if (c == *group || c[-1] == ' ')
                        out[n++].len = 0;
                    if (*c != ' ')
                        out[n - 1].card[out[n - 1].len++] =
                            *c == 'C' ? 0 : ranks[*c == 'r' ? i : j];
                }
            }
    }
    return n;
}

/* generate_sequences(order, pattern, deficits), deficit[0..n_types): the
 * first max_fragments templates that fit the deficits, into out; returns
 * their count. */
OUTLINE static int fragments(int order, int pattern, const int64_t *deficit, int n_types,
                             int64_t max_fragments, frag_t *out)
{
    frag_t all[MAX_TEMPLATES];
    uint8_t ranks[MAX_TYPES], swap;
    int nr = 0, n, kept = 0;
    for (int r = 1; r < n_types; r++)
        if (deficit[r] > 0)
            ranks[nr++] = (uint8_t)r;
    for (int i = 1; i < nr; i++) /* an insertion sort, stable: ties stay ascending */
        for (int j = i; j > 0 && (order == DESCENDING || (order == LARGEST_DEFICIT
                                  && deficit[ranks[j]] > deficit[ranks[j - 1]])); j--) {
            swap = ranks[j];
            ranks[j] = ranks[j - 1];
            ranks[j - 1] = swap;
        }
    n = templates(pattern, ranks, nr, all);
    /* ordinaries first: the all-ordinary templates, then the others */
    for (int pass = 0; pass < 2; pass++)
        for (int i = 0; i < n && kept < max_fragments; i++) {
            int count[MAX_TYPES] = {0}, special = 0, fits = 1;
            for (uint32_t k = 0; k < all[i].len; k++) {
                special |= all[i].card[k] > 0;
                count[all[i].card[k]]++;
            }
            for (uint32_t k = 0; k < all[i].len; k++) /* _fits_deficits */
                fits &= count[all[i].card[k]] <= deficit[all[i].card[k]];
            if (fits && (order == ORDINARIES_FIRST ? special == pass : pass == 0))
                out[kept++] = all[i];
        }
    return kept;
}

/* A Checkpoint, with its decks in card: A's cards, then B's. */
typedef struct {
    uint8_t *card;
    uint32_t len[2];
    int64_t depth, score, age, deficit[MAX_TYPES];
    int excess;
} checkpoint_t;

/* One factory run: its composition, constants and rng, and its tests. */
typedef struct {
    const int64_t *target, *knob;
    int n_types;
    int64_t n_total, max_tricks, tests;
    uint64_t state;
} factory_t;

/* run_factory's checkpoint(): decks cards[0..na) and cards[na..na + nb)
 * into cp, their composition counted once. */
OUTLINE static void make(const factory_t *f, checkpoint_t *cp, const uint8_t *cards,
                         uint32_t na, uint32_t nb, int64_t depth, int64_t age)
{
    int64_t held[MAX_TYPES] = {0};
    memcpy(cp->card, cards, na + nb);
    for (uint32_t i = 0; i < na + nb; i++)
        if (cards[i] < f->n_types)
            held[cards[i]]++;
    cp->len[0] = na;
    cp->len[1] = nb;
    cp->depth = depth;
    cp->age = age;
    cp->score = f->n_total;
    cp->excess = 0;
    for (int t = 0; t < f->n_types; t++) {
        int64_t d = cp->deficit[t] = f->target[t] - held[t];
        cp->score -= d < 0 ? -d : d;
        cp->excess |= d < 0;
    }
}

/* _first_insertion: for each fragment in turn, the len + 1 insertion
 * points of its deck (A's if into_a, else B's), shuffled, then the first
 * max_positions of them, each a match with the fragment spliced in there
 * and A leading. Returns 1 with the decks of the first match that loops
 * in next, A's then B's, and their lengths in len; 0 if none loops. */
OUTLINE static int insert(factory_t *f, const checkpoint_t *cp, const frag_t *frag,
                          int n_frags, uint32_t bias, uint8_t *next, uint32_t *len)
{
    uint32_t points[MAX_CARDS + 1];
    int64_t result[2];
    for (int k = 0; k < n_frags; k++) {
        int into_a = bias == 0 || (bias == 2 && k % 2 == 0);
        const uint8_t *deck = cp->card + (into_a ? 0 : cp->len[0]);
        uint32_t n = cp->len[!into_a], no = cp->len[into_a], nf = frag[k].len;
        uint8_t *grown = next + (into_a ? 0 : no);
        len[!into_a] = n + nf;
        len[into_a] = no;
        memcpy(next + (into_a ? n + nf : 0), cp->card + (into_a ? n : 0), no);
        for (uint32_t i = 0; i <= n; i++)
            points[i] = i;
        shuffle(points, n + 1, &f->state);
        int64_t count = f->knob[MAX_POSITIONS] < n + 1 ? f->knob[MAX_POSITIONS] : n + 1;
        for (int64_t t = 0; t < count; t++) {
            uint32_t pos = points[t];
            memcpy(grown, deck, pos);
            memcpy(grown + pos, frag[k].card, nf);
            memcpy(grown + pos + nf, deck + pos, n - pos);
            f->tests++;
            if (play(next, len[0], next + len[0], len[1], 0, f->max_tricks, result) == 1)
                return 1;
        }
    }
    return 0;
}

/* _first_correction: each of the first max_positions excess spots of cp,
 * shuffled, with its card removed, then each retyped to each deficient
 * type, ascending; returns 1 with the decks of the first that loops, A
 * leading, in next and their lengths in len, or 0 if none does. */
OUTLINE static int correct(factory_t *f, const checkpoint_t *cp, uint8_t *next,
                           uint32_t *len)
{
    uint32_t spot[MAX_CARDS], n = 0, nd = 0, total = cp->len[0] + cp->len[1];
    uint8_t deficient[MAX_TYPES];
    int64_t result[2];
    for (uint32_t i = 0; i < total; i++) /* a spot: a card's index in A, then B */
        if (cp->card[i] < f->n_types && cp->deficit[cp->card[i]] < 0)
            spot[n++] = i;
    shuffle(spot, n, &f->state);
    if (n > f->knob[MAX_POSITIONS])
        n = (uint32_t)f->knob[MAX_POSITIONS];
    for (int t = 0; t < f->n_types; t++)
        if (cp->deficit[t] > 0)
            deficient[nd++] = (uint8_t)t;
    for (uint32_t k = 0; k < n * (1 + nd); k++) { /* the n removals, then the retypes */
        uint32_t i = spot[k < n ? k : (k - n) / nd], which = i >= cp->len[0];
        if (k < n && cp->len[which] == 1)
            continue; /* never empty a deck */
        memcpy(next, cp->card, total);
        len[0] = cp->len[0];
        len[1] = cp->len[1];
        if (k < n) {
            memmove(next + i, next + i + 1, total - i - 1);
            len[which]--;
        } else {
            next[i] = deficient[(k - n) % nd];
        }
        f->tests++;
        if (play(next, len[0], next + len[0], len[1], 0, f->max_tricks, result) == 1)
            return 1;
    }
    return 0;
}

/* _rank(x) > _rank(y): by score, then depth, then age. */
static int above(const checkpoint_t *x, const checkpoint_t *y)
{
    if (x->score != y->score)
        return x->score > y->score;
    return x->depth != y->depth ? x->depth > y->depth : x->age > y->age;
}

/* run_factory's store: a list of checkpoints, each in one of the slots. */
typedef struct {
    checkpoint_t *slot;
    int64_t *list;  /* the store, as slot numbers in list order */
    int64_t *spare; /* the slots out of the store */
    int64_t n, n_spare;
} store_t;

/* The store holding only the seed, a checkpoint of age `age`: its slot. */
OUTLINE static int64_t restart(const factory_t *f, store_t *s, const uint8_t *seed,
                               uint32_t na, uint32_t nb, int64_t age)
{
    while (s->n)
        s->spare[s->n_spare++] = s->list[--s->n];
    int64_t k = s->list[s->n++] = s->spare[--s->n_spare];
    make(f, &s->slot[k], seed, na, nb, 0, age);
    return k;
}

/* _keep: append the checkpoint in slot k, taken from the spares, evict
 * the lowest (score, age) down to capacity, and return the new top given
 * the top before. */
OUTLINE static int64_t keep(store_t *s, int64_t top, int64_t k, int64_t capacity)
{
    const checkpoint_t *slot = s->slot;
    s->list[s->n++] = k;
    if (above(&slot[k], &slot[top]))
        top = k;
    while (s->n > capacity) {
        int64_t v = 0, victim;
        for (int64_t i = 1; i < s->n; i++) {
            const checkpoint_t *x = &slot[s->list[i]], *y = &slot[s->list[v]];
            if (x->score < y->score || (x->score == y->score && x->age < y->age))
                v = i;
        }
        victim = s->spare[s->n_spare++] = s->list[v];
        memmove(s->list + v, s->list + v + 1, (size_t)(--s->n - v) * sizeof *s->list);
        if (victim == top) /* rescan */
            for (int64_t i = 0; i < s->n; i++)
                if (i == 0 || above(&slot[s->list[i]], &slot[top]))
                    top = s->list[i];
    }
    return top;
}

/* factory._rounds on the seed decks seed[0..na) and seed[na..na + nb),
 * with rng.state as state: the composition target[0..n_types) (rank 0 the
 * ordinaries), the n_rows STRATEGIES rows in rows (each its order, its
 * pattern count, its patterns), the tuning constants knob[] and
 * restart_probability, the round budget and the trick cap. Writes the best
 * checkpoint's decks to best_cards, A's then B's, which has room for the
 * seed and the composition, and (rounds, tests, A's length, B's length,
 * depth, age) to out. Returns 1 if that checkpoint is complete, 0 if the
 * budget ran out, -1 with nothing done for a run past MAX_CARDS or past
 * the constants taken here, and -2 without memory. A checkpoint gains no
 * type but those the seed lacks, and those only up to the composition, so
 * the seed and its deficits bound its cards. */
int bmn_factory(const uint8_t *seed, uint32_t na, uint32_t nb, const int64_t *target,
                int64_t n_types, const uint8_t *rows, int64_t n_rows, const int64_t *knob,
                double restart_probability, uint64_t state, int64_t budget,
                int64_t max_tricks, uint8_t *best_cards, int64_t *out)
{
    factory_t f = {target, knob, (int)n_types, 0, max_tricks, 0, state};
    checkpoint_t best = {.card = best_cards};
    store_t s = {0};
    frag_t frag[MAX_TEMPLATES];
    uint8_t next[MAX_CARDS], *pool = NULL;
    uint32_t len[2];
    int64_t capacity = knob[CAPACITY], bound = na + nb, stuck = 0, last_selected_age = -1;
    int64_t age_counter = 0, rounds = 0, top;
    int status = 0;
    if (n_types < 1 || n_types > MAX_TYPES || knob[MAX_FRAGMENTS] < 0
            || knob[MAX_POSITIONS] < 0 || knob[RESTART_INTERVAL] < 1 || capacity < 1
            || capacity >= INT32_MAX)
        return -1;
    for (int t = 0; t < n_types; t++)
        f.n_total += target[t];
    make(&f, &best, seed, na, nb, 0, age_counter);
    for (int t = 0; t < n_types; t++)
        bound += best.deficit[t] > 0 ? best.deficit[t] : 0;
    if (bound > MAX_CARDS)
        return -1;
    s.slot = malloc((size_t)(capacity + 1) * sizeof *s.slot);
    s.list = malloc((size_t)(capacity + 1) * sizeof *s.list);
    s.spare = malloc((size_t)(capacity + 1) * sizeof *s.spare);
    pool = malloc((size_t)(capacity + 1) * (size_t)bound);
    if (!s.slot || !s.list || !s.spare || !pool) {
        status = -2;
        goto done;
    }
    for (int64_t k = 0; k <= capacity; k++) {
        s.slot[k].card = pool + k * bound;
        s.spare[s.n_spare++] = k;
    }
    top = restart(&f, &s, seed, na, nb, age_counter);
    while (rounds < budget) {
        rounds++;
        if (rounds % knob[RESTART_INTERVAL] == 0
                && (double)(next_u64(&f.state) >> 11) * 0x1p-53 < restart_probability) {
            top = restart(&f, &s, seed, na, nb, ++age_counter);
            last_selected_age = -1;
            stuck = 0;
        }
        int escape = stuck >= knob[ESCAPE_THRESHOLD];
        const checkpoint_t *cp =
            &s.slot[escape && s.n > 1 ? s.list[below(&f.state, (uint32_t)s.n)] : top];
        if (escape)
            stuck = 0;
        const uint8_t *row = rows;
        for (uint32_t r = below(&f.state, (uint32_t)n_rows); r; r--)
            row += 2 + row[1];
        int pattern = row[2 + below(&f.state, row[1])];
        uint32_t bias = below(&f.state, 3); /* 0: deck A, 1: deck B, 2: alternate */
        int n_frags = fragments(row[0], pattern, cp->deficit, f.n_types, knob[MAX_FRAGMENTS],
                                frag);
        int found = insert(&f, cp, frag, n_frags, bias, next, len);
        if (!found && cp->excess)
            found = correct(&f, cp, next, len);
        if (!found) {
            stuck = cp->age == last_selected_age ? stuck + 1 : 1;
            last_selected_age = cp->age;
            continue;
        }
        /* depth counts insertions only, the one move that adds cards */
        int64_t k = s.spare[--s.n_spare];
        make(&f, &s.slot[k], next, len[0], len[1],
             cp->depth + (len[0] + len[1] > cp->len[0] + cp->len[1]), ++age_counter);
        top = keep(&s, top, k, capacity);
        stuck = 0;
        last_selected_age = -1;
        /* the slot stays as it is until the next round, even if evicted */
        const checkpoint_t *new_cp = &s.slot[k];
        if (new_cp->score > best.score
                || (new_cp->score == best.score && new_cp->depth > best.depth)) {
            best = *new_cp;
            best.card = best_cards;
            memcpy(best_cards, new_cp->card, new_cp->len[0] + new_cp->len[1]);
        }
        if (new_cp->score == f.n_total) { /* new_cp is best: no best scored as much */
            status = 1;
            break;
        }
    }
    out[0] = rounds;
    out[1] = f.tests;
    out[2] = best.len[0];
    out[3] = best.len[1];
    out[4] = best.depth;
    out[5] = best.age;
done:
    free(s.slot);
    free(s.list);
    free(s.spare);
    free(pool);
    return status;
}
