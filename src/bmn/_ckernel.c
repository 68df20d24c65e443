/* The match kernel in C, line for line the pure-Python one in _kernels.py
 * but in run()'s trick loop and bmn_simulate's deal, written for speed: the
 * comments there say why their results are the same.
 * bmn_play_loops is play_match_loops: _py_run's trick loop on ring-buffer
 * decks, Brent's cycle detector as the same one block loop (block 0, the
 * first FIRST_BLOCK tricks, unwatched) with the same trick limit, and
 * _py_transient's lockstep pass. bmn_simulate is simulate_batch: the
 * splitmix64 Fisher-Yates deal of SplitMix64.shuffle (the draws of
 * SplitMix64.below's masked rejection), then play_match_loops, A leading,
 * each outcome added to a histogram and counts that the caller holds.
 * bmn_trace is trace, a chunk of engine.walk on the same trick loop: each
 * trick boundary's deck sizes, special positions, separations and
 * entropies, the entropies summed in analyzer._spacing's order.
 * bmn_factory is factory._rounds, the factory's whole round loop: restarts,
 * escapes, checkpoint store, the draws on its splitmix64 stream, fragments
 * from the factory._PATTERNS it is passed, and the insertion and correction
 * tests, each a packed state played by play_match_loops with A leading
 * unless the run's memo of failed tests holds it: such a test is counted,
 * not played, and the tests played are counted too. It takes the package's
 * own pattern table and constants as given: a tier-1 test checks that they
 * fit the limits here.
 * bmn_search is search, the whole breadth-first backward search over
 * packed states of one width; it returns the states found, a row of that
 * width each, and their depths. Its step is _py_step, the inverse of a
 * trick: the closing-block test, then _parse_pile on every bottom slice of
 * the winner's deck, each parse packed as a predecessor.
 * A packed state is _kernels.pack's, in one layout for the trace, the
 * search and the factory's tests and memo; write_header and read_header
 * alone write and read its header. One hash set of packed states (set_t,
 * with find, put and empty) holds both the states the search finds and
 * the factory's memo.
 * No bmn_* function checks its arguments: _kernels hands them only decks of
 * at most MAX_CARDS cards in all, and counts (budgets, trick caps, depths,
 * node limits, batches) within (-2**60, 2**60), so that trick counts stay
 * within int64. Out of memory, -2 from bmn_search and bmn_factory, is
 * the one failure.
 * Results are bit for bit the Python ones. _kernels compiles this file with
 * _kernels._CFLAGS and calls it through ctypes; it uses no Python API. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

double log(double); /* libm's: <math.h> would add to the compiler's memory */

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

/* A packed state is _kernels.pack's: a HEADER of the leader and the lengths
 * of decks A and B (16 bits each, low byte first), then A's cards and then
 * B's. These two alone write and read a header. */
static void write_header(uint8_t *p, int leader, uint32_t na, uint32_t nb)
{
    p[0] = (uint8_t)leader;
    p[1] = na & 255;
    p[2] = (uint8_t)(na >> 8);
    p[3] = nb & 255;
    p[4] = (uint8_t)(nb >> 8);
}

/* The leader of the packed state p, and its decks' lengths in *na, *nb. */
static int read_header(const uint8_t *p, uint32_t *na, uint32_t *nb)
{
    *na = p[1] | (uint32_t)p[2] << 8;
    *nb = p[3] | (uint32_t)p[4] << 8;
    return p[0];
}

/* The bytes of the packed state p: its header and its cards. */
static int64_t width_of(const uint8_t *p)
{
    uint32_t na, nb;
    read_header(p, &na, &nb);
    return HEADER + (int64_t)na + nb;
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
 * the state `watch` at a trick boundary, 2 = played n tricks. Its decks are
 * _py_run's, but for speed: the decks of the player to flip and the other
 * are locals, me and you, swapped each turn and stored to g only before
 * same() reads it and on return; the winner is the player not to flip when
 * the trick ends (the flipper paid out or ran out), so no challenger is kept;
 * and each card goes at once past the tails both decks had at the trick's
 * start, the winner's length taking the pile in at its end: no pile is
 * copied. That slot is len + np past a deck's head, below the ring's size
 * as len[0] + len[1] + np cards are in play: never a live card, and only
 * live cards are read. */
static int run(game_t *g, int64_t n, const game_t *watch, int64_t *played)
{
    typedef struct { uint8_t *ring; uint32_t head, len; } deck_t;
    uint32_t mask = g->mask, cur = (uint32_t)g->cur;
    deck_t me = {g->card[cur], g->head[cur], g->len[cur]}, swap,
           you = {g->card[!cur], g->head[!cur], g->len[!cur]};
    int status = 2;
    int64_t tricks = 0;
    while (tricks < n) {
        uint32_t pending = 0, np = 0, tail0 = cur ? you.head + you.len : me.head + me.len,
                 tail1 = cur ? me.head + me.len : you.head + you.len;
        while (me.len) { /* an empty deck to flip from loses the trick */
            uint8_t card = me.ring[me.head];
            me.head = (me.head + 1) & mask;
            me.len--;
            g->card[0][(tail0 + np) & mask] = card;
            g->card[1][(tail1 + np++) & mask] = card;
            if (card || !pending) {
                pending = card;
                swap = me, me = you, you = swap, cur ^= 1;
            } else if (--pending == 0) {
                break;
            }
        }
        you.len += np;
        swap = me, me = you, you = swap, cur ^= 1;
        if (++tricks < n && you.len && !watch)
            continue;
        g->head[cur] = me.head, g->len[cur] = me.len, g->cur = (int)cur;
        g->head[!cur] = you.head, g->len[!cur] = you.len;
        if (you.len == 0 || (watch && same(g, watch))) {
            status = you.len > 0;
            break;
        }
    }
    *played = tricks;
    return status;
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
    int64_t tricks = 0, played, last = FIRST_BLOCK;
    load(&g, a, na, b, nb, leader);
    while (last < max_tricks + FIRST_BLOCK - 1)
        last *= 2;
    int64_t limit = max_tricks + last;
    /* block 0 is played unwatched; each later block watches its first state */
    for (int64_t block = FIRST_BLOCK; tricks < limit; block *= 2) {
        if (tricks)
            saved = g;
        int status = run(&g, block < limit - tricks ? block : limit - tricks,
                         tricks ? &saved : NULL, &played);
        tricks += played;
        if (status == 0) {
            if (tricks > max_tricks)
                break;
            out[0] = g.cur;
            out[1] = tricks;
            return 0;
        }
        if (status == 1) {
            int64_t t = played <= max_tricks
                ? transient(a, na, b, nb, leader, played, max_tricks - played) : -1;
            if (t < 0)
                break;
            out[0] = t;
            out[1] = played;
            return 1;
        }
    }
    out[0] = -1;
    out[1] = max_tricks;
    return 2;
}

/* play_match_loops(a, b, leader, max_tricks): returns the status and
 * writes (a, b) of the result to out. play stays static: the batch and the
 * factory call it directly, not through the library's exported symbol. */
int bmn_play_loops(const uint8_t *a, uint32_t na, const uint8_t *b, uint32_t nb,
                   int leader, int64_t max_tricks, int64_t *out)
{
    return play(a, na, b, nb, leader, max_tricks, out);
}

/* One trace row of g's decks at out, which need not be aligned for the
 * doubles: A's and B's sizes and A's special count k, then the 1-based
 * positions of A's k specials and of B's, all uint16; then A's and B's
 * separations (m - k) / (k + 1) and A's and B's entropies, doubles. An
 * entropy is 0.0 - s, where s sums x * log(x), x = l / m, left to right
 * over the deck's nonempty runs of l ordinaries, as analyzer._spacing
 * does; an empty deck gives 0.0 for both. Returns the end of the row. */
static uint16_t *row(const game_t *g, uint16_t *out)
{
    uint16_t *pos = out + 3;
    double measure[4];
    for (int p = 0; p < 2; p++) {
        uint32_t m = g->len[p], k = 0, last = 0;
        double s = 0.0;
        for (uint32_t i = 0; i <= m; i++)
            if (i == m || g->card[p][(g->head[p] + i) & g->mask]) {
                if (i > last) { /* a run of i - last ordinaries ends here */
                    double x = (double)(i - last) / m;
                    s += x * log(x);
                }
                if (i < m)
                    pos[k++] = (uint16_t)(i + 1);
                last = i + 1;
            }
        out[p] = (uint16_t)m;
        if (p == 0)
            out[2] = (uint16_t)k;
        pos += k;
        measure[p] = m ? (double)(m - k) / (k + 1) : 0.0;
        measure[2 + p] = 0.0 - s;
    }
    memcpy(pos, measure, sizeof measure);
    return (uint16_t *)((char *)pos + sizeof measure);
}

/* engine.walk from the packed state (see write_header) for up to n tricks,
 * stopping at the end of the match: a row (see row: sizes, special count and
 * positions, then four doubles) for the state and one after each trick,
 * written one after another to out, which has room for n + 1 of them. The
 * state left is packed back into `state`, for the next call to resume from.
 * Returns the tricks played. */
int64_t bmn_trace(uint8_t *state, int64_t n, uint16_t *out)
{
    game_t g;
    int64_t t = 0, played;
    uint32_t na, nb;
    int leader = read_header(state, &na, &nb);
    load(&g, state + HEADER, na, state + HEADER + na, nb, leader);
    for (out = row(&g, out); t < n && g.len[0] && g.len[1]; t++) {
        run(&g, 1, NULL, &played);
        out = row(&g, out);
    }
    write_header(state, g.cur, g.len[0], g.len[1]);
    for (int p = 0, at = HEADER; p < 2; p++)
        for (uint32_t i = 0; i < g.len[p]; i++)
            state[at++] = g.card[p][(g.head[p] + i) & g.mask];
    return t;
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

/* simulate_batch(count, deck, seed, max_tricks, start): each match added to
 * hist (terminated, by trick count) or tally (A won, B won, looped, over
 * budget). Stops before a match that ends after n_hist tricks or more;
 * returns the matches added. Seed and start arrive reduced mod 2**64. */
int64_t bmn_simulate(const uint8_t *deck, uint32_t n, uint64_t seed, uint64_t start,
                     int64_t count, int64_t max_tricks, int64_t *hist, int64_t n_hist,
                     int64_t *tally)
{
    uint8_t cards[MAX_CARDS];
    int64_t out[2];
    for (int64_t k = 0; k < count; k++) {
        uint64_t state = fmix64(seed ^ fmix64(start + (uint64_t)k + 1));
        memcpy(cards, deck, n);
        /* SplitMix64.shuffle without branches: below's mask, the least
         * 2**k - 1 >= i, halves as i falls to it; a rejected draw swaps
         * slot i with itself and keeps i, so the draws are below's */
        for (uint32_t i = n > 1 ? n - 1 : 0, mask = i ? UINT32_MAX >> __builtin_clz(i) : 0; i;
             mask = i == mask >> 1 ? mask >> 1 : mask) {
            uint32_t r = (uint32_t)next_u64(&state) & mask, ok = r <= i, j = ok ? r : i;
            uint8_t top = cards[i];
            cards[i] = cards[j];
            cards[j] = top;
            i -= ok;
        }
        int status = play(cards, n / 2, cards + n / 2, n - n / 2, 0, max_tricks, out);
        if (status == 0 && out[1] >= n_hist)
            return k;
        if (status == 0)
            hist[out[1]]++;
        tally[status ? 1 + status : out[0]]++;
    }
    return count;
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

/* The one hash set of packed states, kept by the backward search (the
 * states found) and by the factory (its memo of failed tests). The states
 * lie one after another in an arena, in the order kept, and an
 * open-addressing table of 1 + their offsets (0: an empty slot) finds them,
 * with linear probing and a byte compare, never by hash alone. The arena
 * always has room for SPARE bytes past its last state, where a caller
 * writes the state it keeps; the table keeps over two slots a state. */
typedef struct {
    uint8_t *arena;
    int64_t *table;
    /* the arena's bytes in use and allocated, the states, the table's slots
     * (a power of two) and the bytes the arena and table may grow to */
    int64_t used, room, n, slots, bound;
} set_t;

#define SPARE (HEADER + MAX_CARDS) /* bytes of the widest packed state */
#define FIRST_ROOM 4096            /* bytes of a set's first arena, and of its table */

/* An empty set, its arrays at their first sizes whatever the bound: 0
 * without memory, the arrays that were allocated left for the caller to free. */
static int start(set_t *s, int64_t bound)
{
    *s = (set_t){malloc(FIRST_ROOM), calloc(FIRST_ROOM, 1), 0, FIRST_ROOM, 0,
                 FIRST_ROOM / sizeof *s->table, bound};
    return s->arena && s->table;
}

/* The slot of the packed state p: the one holding it, or the empty slot
 * where it would go. A header holds both decks' lengths, so states of two
 * widths never compare equal, and the compare stays in the arena: SPARE
 * bytes follow its last state. */
static int64_t *find(const set_t *s, const uint8_t *p)
{
    int64_t width = width_of(p), *slot;
    uint64_t h = hash(p, width), mask = (uint64_t)s->slots - 1;
    while (*(slot = &s->table[h++ & mask]) && memcmp(s->arena + *slot - 1, p, (size_t)width)) {}
    return slot;
}

/* Puts the state written at the arena's tail in *slot, the empty slot find
 * gave it. Then the arena doubles if SPARE bytes no longer follow the
 * state, and the table, rebuilt, if it has two slots a state or fewer: one
 * doubling is enough, as a state takes SPARE bytes at most and the arena
 * holds FIRST_ROOM > SPARE at least. Returns 0, the state kept, if the
 * arrays would grow past s->bound bytes together or there is no memory:
 * the set then takes no other state until it is emptied. */
static int put(set_t *s, int64_t *slot)
{
    *slot = s->used + 1;
    s->used += width_of(s->arena + s->used);
    s->n++;
    if (s->used + SPARE <= s->room && 2 * s->n < s->slots)
        return 1;
    int64_t room = s->used + SPARE <= s->room ? s->room : 2 * s->room;
    int64_t slots = 2 * s->n < s->slots ? s->slots : 2 * s->slots, *table;
    uint8_t *arena;
    if (room + slots * (int64_t)sizeof *table > s->bound
            || !(arena = realloc(s->arena, (size_t)room)))
        return 0;
    s->arena = arena;
    s->room = room;
    if (slots == s->slots)
        return 1;
    if (!(table = calloc((size_t)slots, sizeof *table)))
        return 0;
    free(s->table);
    s->table = table;
    s->slots = slots;
    for (int64_t at = 0; at < s->used; at += width_of(arena + at))
        *find(s, arena + at) = at + 1;
    return 1;
}

/* Empties the set; its arrays keep their sizes. */
static void empty(set_t *s)
{
    s->used = s->n = 0;
    memset(s->table, 0, (size_t)s->slots * sizeof *s->table);
}

/* The breadth-first backward search of bmn_search: the states found, in
 * its set, and their depths, in an array doubled each time their count
 * reaches a power of two. */
typedef struct {
    set_t set;
    int64_t *depths, max_nodes;
} search_t;

/* search's result, handed to the caller, who frees it with bmn_free. */
typedef struct {
    uint8_t *states;
    int64_t *depths;
    int64_t n;
} found_t;

/* Keeps the state written at the tail of the search's set, found at
 * `depth`, unless the set holds it: 1 if that takes the search to its node
 * budget, -1 without memory, 0 otherwise. */
static int reach(search_t *s, int64_t depth)
{
    int64_t *slot = find(&s->set, s->set.arena + s->set.used), n = s->set.n, *depths;
    if (*slot)
        return 0;
    if (!(n & (n - 1))) { /* none or a power of two: room for twice as many */
        if (!(depths = realloc(s->depths, (size_t)(2 * n + 1) * sizeof *depths)))
            return -1;
        s->depths = depths;
    }
    s->depths[n] = depth;
    return put(&s->set, slot) ? s->set.n >= s->max_nodes : -1;
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
    uint32_t np[2], na, nb;
    int leader_won, stop, winner = read_header(t, &na, &nb);
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
        uint8_t *p = s->set.arena + s->set.used;
        uint32_t n_a = winner ? n_lost + nl : n_won + rest;
        uint8_t *pw = p + HEADER + (winner ? n_a : 0), *pl = p + HEADER + (winner ? 0 : n_a);
        write_header(p, leader_won ? winner : !winner, n_a, na + nb - n_a);
        memcpy(pw, won, n_won);
        memcpy(pw + n_won, w, rest);
        memcpy(pl, lost, n_lost);
        memcpy(pl + n_lost, l, nl);
        if ((stop = reach(s, depth)))
            return stop;
    }
    return 0;
}

/* search(seeds, max_depth, max_nodes) on the n packed states (see
 * write_header) read one after another from seeds, each led by the winner of
 * the trick before it. Every distinct seed is found first, at depth 0; each
 * later level holds the predecessors of the level before, in its order and
 * then by pile length, that were not found before. The search stops after
 * max_depth levels or as soon as max_nodes states are found (the seeds are
 * all kept). Writes the states found, all of the seeds' one width (a trick
 * keeps every card), and their depths to *found, to be freed with bmn_free,
 * and returns 0; returns -2 without memory, with nothing to free. */
int bmn_search(const uint8_t *seeds, int64_t n, int64_t max_depth, int64_t max_nodes,
               found_t *found)
{
    uint8_t t[SPARE];
    int64_t width = n ? width_of(seeds) : HEADER;
    search_t s = {.max_nodes = max_nodes};
    if (!start(&s.set, INT64_MAX))
        goto fail;
    for (int64_t i = 0; i < n; i++) {
        memcpy(s.set.arena + s.set.used, seeds + i * width, (size_t)width);
        if (reach(&s, 0) < 0)
            goto fail;
    }
    for (int64_t depth = 1, first = 0, end = s.set.n;
         first < end && depth <= max_depth && s.set.n < max_nodes;
         depth++, first = end, end = s.set.n) {
        for (int64_t i = first; i < end; i++) {
            /* a copy: the states found may move as they grow */
            memcpy(t, s.set.arena + i * width, (size_t)width);
            int stop = step(&s, t, depth);
            if (stop < 0)
                goto fail;
            if (stop)
                goto done;
        }
    }
done:
    free(s.set.table);
    *found = (found_t){s.set.arena, s.depths, s.set.n};
    return 0;
fail:
    free(s.set.arena);
    free(s.set.table);
    free(s.depths);
    return -2;
}

/* Frees what bmn_search wrote to *found. */
void bmn_free(found_t *found)
{
    free(found->states);
    free(found->depths);
}

/* The loop factory: bmn_factory is factory._rounds, line for line. */

#define MAX_TYPES 10     /* card types: ordinaries (0) and ranks 1..9 */
#define MAX_TEMPLATES 81 /* of one pattern: as many as mixed10's over nine ranks */
/* The factory's helpers stay out of bmn_factory and of each other: each
 * runs once a round or once a test at most, beside which a call costs
 * nothing, and inlining them all raised the compiler's peak memory from 40
 * to 43 MB (gcc 12, -O2), more than a process running the benchmark uses. */
#define OUTLINE __attribute__((noinline))

/* The tuning constants, in the order factory._c_rounds passes them. */
enum { MAX_FRAGMENTS, MAX_POSITIONS, RESTART_INTERVAL, ESCAPE_THRESHOLD, CAPACITY,
       MEMO_BYTES };
/* The rank orders, in factory._ORDERS order. */
enum { ASCENDING, DESCENDING, LARGEST_DEFICIT, ORDINARIES_FIRST };

typedef struct {
    uint32_t len;
    uint8_t card[10];
} frag_t;

/* _pattern_fragments over ranks[0..nr) into out, reading a pattern as the
 * comment on factory._PATTERNS says; returns the count. The shipped table
 * fits, as a tier-1 test checks: its letters are C, r, s and spaces, no
 * shape is empty or over the 10 cards of frag_t, and a pattern gives at most
 * MAX_TEMPLATES templates over nine ranks. */
OUTLINE static int templates(const char *pattern, const uint8_t *ranks, int nr, frag_t *out)
{
    int n = 0;
    for (const char *group = pattern; *group; group += strlen(group) + 1) {
        int pairs = strchr(group, 's') != NULL, each = pairs || strchr(group, 'r');
        for (int i = 0; i < (each ? nr : 1); i++)
            for (int j = 0; j < (pairs ? nr : 1); j++) {
                if (pairs && i == j)
                    continue;
                out[n].len = 0;
                for (const char *c = group; *c; c++) { /* its shapes, split at spaces */
                    frag_t *f = &out[n];
                    if (*c == ' ')
                        out[++n].len = 0;
                    else
                        f->card[f->len++] = *c == 'C' ? 0 : ranks[*c == 'r' ? i : j];
                }
                n++;
            }
    }
    return n;
}

/* generate_sequences(order, pattern, deficits), deficit[0..n_types): the
 * first max_fragments templates that fit the deficits, into out; returns
 * their count. */
OUTLINE static int fragments(int order, const char *pattern, const int64_t *deficit,
                             int n_types, int64_t max_fragments, frag_t *out)
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

/* One factory run: its composition, constants and rng, its tests and the
 * ones played, and its memo of failed tests. A test's outcome depends on its
 * decks alone (A leads, and the trick cap is the run's), so the memo keeps
 * the packed state (see write_header) of each insertion or correction test
 * that did not loop, A leading, and a test it holds fails again and is not
 * played. The memo is emptied when growing would take its arena and table
 * past knob[MEMO_BYTES]. */
typedef struct {
    const int64_t *target, *knob;
    int n_types;
    int64_t n_total, max_tricks, tests, played;
    uint64_t state;
    set_t memo;
} factory_t;

/* test_nontermination of the packed state next, A leading: one insertion or
 * correction test, counted, then played, and counted as played, unless the
 * memo holds it; one that does not loop goes into the memo. */
OUTLINE static int loops(factory_t *f, const uint8_t *next)
{
    int64_t result[2], *slot = find(&f->memo, next);
    uint32_t na, nb;
    f->tests++;
    if (*slot)
        return 0;
    f->played++;
    read_header(next, &na, &nb);
    if (play(next + HEADER, na, next + HEADER + na, nb, 0, f->max_tricks, result) == 1)
        return 1;
    memcpy(f->memo.arena + f->memo.used, next, HEADER + na + nb);
    if (!put(&f->memo, slot))
        empty(&f->memo);
    return 0;
}

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
 * max_positions of them, each a test (loops) of the fragment spliced in
 * there. Returns 1 with the packed state of the first test that loops in
 * next, 0 if none loops. */
OUTLINE static int insert(factory_t *f, const checkpoint_t *cp, const frag_t *frag,
                          int n_frags, uint32_t bias, uint8_t *next)
{
    uint32_t points[MAX_CARDS + 1];
    for (int k = 0; k < n_frags; k++) {
        int into_a = bias == 0 || (bias == 2 && k % 2 == 0);
        const uint8_t *deck = cp->card + (into_a ? 0 : cp->len[0]);
        uint32_t n = cp->len[!into_a], no = cp->len[into_a], nf = frag[k].len;
        uint8_t *cards = next + HEADER, *grown = cards + (into_a ? 0 : no);
        write_header(next, 0, into_a ? n + nf : no, into_a ? no : n + nf);
        memcpy(cards + (into_a ? n + nf : 0), cp->card + (into_a ? n : 0), no);
        for (uint32_t i = 0; i <= n; i++)
            points[i] = i;
        shuffle(points, n + 1, &f->state);
        int64_t count = f->knob[MAX_POSITIONS] < n + 1 ? f->knob[MAX_POSITIONS] : n + 1;
        for (int64_t t = 0; t < count; t++) {
            uint32_t pos = points[t];
            memcpy(grown, deck, pos);
            memcpy(grown + pos, frag[k].card, nf);
            memcpy(grown + pos + nf, deck + pos, n - pos);
            if (loops(f, next))
                return 1;
        }
    }
    return 0;
}

/* _first_correction: each of the first max_positions excess spots of cp,
 * shuffled, with its card removed, then each retyped to each deficient
 * type, ascending, each a test (loops); returns 1 with the packed state of
 * the first that loops in next, or 0 if none does. */
OUTLINE static int correct(factory_t *f, const checkpoint_t *cp, uint8_t *next)
{
    uint32_t spot[MAX_CARDS], n = 0, nd = 0, total = cp->len[0] + cp->len[1];
    uint8_t deficient[MAX_TYPES], *cards = next + HEADER;
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
        uint32_t i = spot[k < n ? k : (k - n) / nd], which = i >= cp->len[0], cut = k < n;
        if (cut && cp->len[which] == 1)
            continue; /* never empty a deck */
        write_header(next, 0, cp->len[0] - (cut && !which), cp->len[1] - (cut && which));
        memcpy(cards, cp->card, total);
        if (cut)
            memmove(cards + i, cards + i + 1, total - i - 1);
        else
            cards[i] = deficient[(k - n) % nd];
        if (loops(f, next))
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
 * the top before; the top is never the one evicted, as factory._keep says. */
OUTLINE static int64_t keep(store_t *s, int64_t top, int64_t k, int64_t capacity)
{
    const checkpoint_t *slot = s->slot;
    s->list[s->n++] = k;
    if (above(&slot[k], &slot[top]))
        top = k;
    while (s->n > capacity) {
        int64_t v = 0;
        for (int64_t i = 1; i < s->n; i++) {
            const checkpoint_t *x = &slot[s->list[i]], *y = &slot[s->list[v]];
            if (x->score < y->score || (x->score == y->score && x->age < y->age))
                v = i;
        }
        s->spare[s->n_spare++] = s->list[v];
        memmove(s->list + v, s->list + v + 1, (size_t)(--s->n - v) * sizeof *s->list);
    }
    return top;
}

/* factory._rounds on the seed decks seed[0..na) and seed[na..na + nb),
 * with rng.state as state: the composition target[0..n_types) (rank 0 the
 * ordinaries), the patterns in table (each its groups, each ending at a
 * NUL, then a NUL; then a NUL), the n_rows STRATEGIES rows (each its order,
 * its pattern count, its patterns' numbers), knob[], restart_probability,
 * the round budget and the trick cap. Writes the best checkpoint's decks to
 * best_cards, A's then B's, with room for the seed and the composition, and
 * (rounds, tests, A's length, B's length, depth, age, tests played: those
 * the memo did not hold) to out. Returns 1 if it is complete, 0 if the
 * budget ran out and -2 without memory. A checkpoint gains no type but
 * those the seed lacks, and those only up to the composition, so the seed
 * and its deficits bound its cards, at most MAX_CARDS as _kernels.factory
 * checks. The table (at most 256 patterns, each fitting templates()) and
 * the knobs are the package's own, taken as given: a tier-1 test checks
 * them. Settings keeps n_types to 2..MAX_TYPES. */
int bmn_factory(const uint8_t *seed, uint32_t na, uint32_t nb, const int64_t *target,
                int64_t n_types, const char *table, const uint8_t *rows, int64_t n_rows,
                const int64_t *knob, double restart_probability, uint64_t state,
                int64_t budget, int64_t max_tricks, uint8_t *best_cards, int64_t *out)
{
    factory_t f = {target, knob, (int)n_types, 0, max_tricks, 0, 0, state, {0}};
    checkpoint_t best = {.card = best_cards};
    store_t s = {0};
    frag_t frag[MAX_TEMPLATES];
    const char *pattern[256]; /* where each pattern starts in table */
    uint8_t next[SPARE], *pool = NULL; /* a test's packed state */
    int64_t capacity = knob[CAPACITY], bound = na + nb, stuck = 0, last_selected_age = -1;
    int64_t age_counter = 0, rounds = 0, top;
    int status = 0;
    for (int k = 0; *table; table++, k++) /* table: at the first group of pattern k */
        for (pattern[k] = table; *table; table += strlen(table) + 1) {}
    for (int t = 0; t < n_types; t++)
        f.n_total += target[t];
    make(&f, &best, seed, na, nb, 0, age_counter);
    for (int t = 0; t < n_types; t++)
        bound += best.deficit[t] > 0 ? best.deficit[t] : 0;
    s.slot = malloc((size_t)(capacity + 1) * sizeof *s.slot);
    s.list = malloc((size_t)(capacity + 1) * sizeof *s.list);
    s.spare = malloc((size_t)(capacity + 1) * sizeof *s.spare);
    pool = malloc((size_t)(capacity + 1) * (size_t)bound);
    if (!s.slot || !s.list || !s.spare || !pool || !start(&f.memo, knob[MEMO_BYTES])) {
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
        const char *drawn = pattern[row[2 + below(&f.state, row[1])]];
        uint32_t bias = below(&f.state, 3); /* 0: deck A, 1: deck B, 2: alternate */
        int n_frags = fragments(row[0], drawn, cp->deficit, f.n_types, knob[MAX_FRAGMENTS],
                                frag);
        int found = insert(&f, cp, frag, n_frags, bias, next);
        if (!found && cp->excess)
            found = correct(&f, cp, next);
        if (!found) {
            stuck = cp->age == last_selected_age ? stuck + 1 : 1;
            last_selected_age = cp->age;
            continue;
        }
        /* depth counts insertions only, the one move that adds cards */
        int64_t k = s.spare[--s.n_spare];
        uint32_t na_next, nb_next;
        read_header(next, &na_next, &nb_next);
        make(&f, &s.slot[k], next + HEADER, na_next, nb_next,
             cp->depth + (na_next + nb_next > cp->len[0] + cp->len[1]), ++age_counter);
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
    out[6] = f.played;
done:
    free(s.slot);
    free(s.list);
    free(s.spare);
    free(pool);
    free(f.memo.arena);
    free(f.memo.table);
    return status;
}
