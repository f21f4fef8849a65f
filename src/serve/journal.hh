/**
 * @file
 * Durable line-oriented journal primitives. The sweep checkpoint
 * (`bench/sweep.cc --checkpoint/--resume`) is their one durable user;
 * the benchmark program (`perfbench/`) also times the result codec and
 * the per-cell JSON writer.
 *
 * Format contract:
 *
 *   <magic> <16-hex-digit identity>\n        header, written first
 *   <record tokens...>\n                     one line per completed unit
 *
 * Records are whitespace-separated tokens, appended and flushed as each
 * unit of work finishes, so a `kill -9` can tear at most the final
 * line. Every RunResult field round-trips bit-exactly (doubles travel
 * as IEEE bit patterns), which is what lets a resumed run reproduce
 * byte-identical aggregate output without re-running finished work.
 *
 * Robustness contract:
 *  - A torn or corrupt *record* (the interrupted writer's tail) fails
 *    to decode, or decodes with tokens left over, and the unit is
 *    simply re-run.
 *  - Before a reader appends to a journal that held such a record, it
 *    rewrites the file to its valid lines (compactJournal), so a new
 *    record can never be spliced onto a torn tail: "1" + "3 ..." would
 *    otherwise read back as a well-formed record for unit 13.
 *  - A torn or malformed *header* - including one truncated inside the
 *    identity hash - makes the whole file invalid: parseJournalHeader
 *    only accepts the exact magic followed by exactly 16 hex digits
 *    and nothing else. A truncated identity is therefore rejected as
 *    "not a journal", never misparsed as a shorter (foreign) identity.
 *  - A well-formed header with a different identity is foreign and
 *    must be refused by the caller.
 */

#ifndef HSCD_SERVE_JOURNAL_HH
#define HSCD_SERVE_JOURNAL_HH

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/result.hh"

namespace hscd {
namespace serve {

/** Whitespace-free token encoding; the empty string becomes "-". */
std::string escapeTok(const std::string &s);
std::string unescapeTok(const std::string &t);

/** IEEE-754 bit pattern as 16 hex digits (bit-exact double travel). */
std::string doubleBits(double v);

/** Strict token reader: any malformed/missing token poisons the line. */
struct TokenReader
{
    explicit TokenReader(const std::string &line) : in(line) {}

    std::string tok();
    std::uint64_t u64(int base = 10);
    double f64();
    std::string str() { return unescapeTok(tok()); }
    /** True when every token so far parsed and nothing is left over. */
    bool atEnd();

    std::istringstream in;
    bool ok = true;
};

/**
 * Append every RunResult field as journal tokens (leading spaces): the
 * HSCD_RUN_RESULT_SCALARS in list order, then the violation lists, the
 * abort record and the fault counters.
 */
void encodeResult(std::ostream &s, const sim::RunResult &r);

/**
 * Decode a RunResult previously written by encodeResult. Returns false
 * on any malformed token, implausible length prefix or unknown abort
 * kind (torn or corrupt tail).
 */
bool decodeResult(TokenReader &in, sim::RunResult &r);

/** Render the one-line journal header for @p magic and @p identity. */
std::string journalHeader(const std::string &magic, std::uint64_t identity);

/**
 * Strictly parse a journal header line. Accepts exactly
 * `<magic> <16 hex digits>` - no prefix, no suffix, no short identity.
 * Returns true and fills @p identity on success; false on anything
 * else, including a header torn mid-magic or mid-identity.
 */
bool parseJournalHeader(const std::string &line, const std::string &magic,
                        std::uint64_t &identity);

/**
 * Atomically replace the journal at @p path with @p lines, each
 * newline-terminated: the bytes go to `<path>.tmp`, which is then
 * renamed over @p path, so a `kill -9` at any point leaves either the
 * old file or the new one, never a mix. Call it before appending to a
 * journal whose read found a torn record or an unterminated last line.
 * Returns false if the rewrite failed (the original is then intact).
 */
bool compactJournal(const std::string &path,
                    const std::vector<std::string> &lines);

/**
 * Emit the per-cell result fields of the sweep JSON schema:
 * `"fingerprint"` through the conditional abort/error/profile block,
 * 6-space indented, no trailing newline or comma.
 */
void writeResultCellJson(std::ostream &f, const sim::RunResult &r,
                         const std::string &error);

} // namespace serve
} // namespace hscd

#endif // HSCD_SERVE_JOURNAL_HH
