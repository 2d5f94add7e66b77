/**
 * @file
 * Structured serialization of run results.
 *
 * Benches and the experiment runner historically emitted boxed ASCII
 * tables only; perf-trajectory tooling needs the same results machine-
 * readable.  This sink renders NetworkResult / LayerResult trees as
 * JSON documents and flat CSV, and Table objects as JSON Lines
 * records (one object per table, append-friendly across a bench's
 * multiple tables).
 *
 * Sweep output is written per ResultRow: the result plus the resolved
 * RunOptions values and grid AxisCoordinates of the job that produced
 * it, so rows from different RunOptions variants of one sweep are
 * distinguishable in the file alone.
 *
 * Output is byte-deterministic: fixed key order, no timestamps, and
 * shortest-round-trip double formatting, so a parallel sweep merged in
 * submission order serializes identically to its serial run.
 */

#ifndef GRIFFIN_RUNTIME_RESULT_SINK_HH
#define GRIFFIN_RUNTIME_RESULT_SINK_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "griffin/accelerator.hh"
#include "runtime/runner.hh"

namespace griffin {

/** JSON string escaping per RFC 8259 (quotes, backslash, control). */
std::string jsonEscape(const std::string &s);

/**
 * Shortest decimal form that round-trips the double (std::to_chars) —
 * deterministic for equal inputs and locale-independent.
 */
std::string jsonNumber(double v);

/**
 * One network run as a JSON object: identity, cycle totals, aggregate
 * metrics, and the per-layer breakdown.
 */
void writeJson(std::ostream &os, const NetworkResult &result,
               int indent = 0);

/** A result list as a JSON array (the runner's merged sweep output). */
void writeJson(std::ostream &os, const std::vector<NetworkResult> &results);

/**
 * Flat CSV: one row per layer plus one `total` row per network, with
 * the network/arch/category identity repeated per row.
 */
void writeCsv(std::ostream &os, const std::vector<NetworkResult> &results);

/**
 * One output row: a result plus, when `annotated`, the resolved
 * RunOptions and the grid coordinates that produced it.  `experiment`
 * optionally names the registered experiment that produced the row
 * (griffin_bench `run --all` mixes several experiments' rows in one
 * document); empty on rows from unlabeled sweeps.
 */
// griffin-lint: serialized (JSONL result rows)
struct ResultRow
{
    NetworkResult result;
    bool annotated = false;
    RunOptions options{};
    std::vector<AxisCoordinate> coords;
    std::string experiment;
    /**
     * Wall-time of the job that produced this row (`--timings`).
     * `timed` gates serialization: an untimed row emits no elapsed_ms
     * field at all, keeping default output byte-identical to the
     * checked-in baselines (elapsed time is machine-dependent).
     */
    bool timed = false;
    double elapsedMs = 0.0;
};

/**
 * A sweep as self-describing rows: results()[i] annotated with
 * jobs()[i]'s resolved options and grid coordinates, in submission
 * order.  `experiment` labels every row (empty = unlabeled).
 */
std::vector<ResultRow> sweepRows(const SweepResult &sweep,
                                 const std::string &experiment = "");

/**
 * JSON array of annotated rows.  An annotated row carries an
 * "options" object (every RunOptions field the grid can address) and,
 * when the job has grid coordinates, a "coords" object mapping axis
 * name to value token.  Unannotated rows keep the plain
 * NetworkResult shape.
 */
void writeJson(std::ostream &os, const std::vector<ResultRow> &rows);
void writeJson(std::ostream &os, const SweepResult &sweep);

/**
 * CSV of annotated rows: the plain layout plus one column per
 * RunOptions field (empty cells on unannotated rows).  When any row
 * carries an experiment label, an `experiment` column is prepended.
 * Every text field is RFC-4180 quoted on demand (csvEscape), so
 * comma-bearing architecture names stay one column.
 */
void writeCsv(std::ostream &os, const std::vector<ResultRow> &rows);
void writeCsv(std::ostream &os, const SweepResult &sweep);

/**
 * JSON Lines: one compact object per row per line, same key order as
 * the pretty writer.  Because the document has no enclosing array,
 * concatenating the files of a sharded sweep (`--grid-shard i/n`, in
 * shard order) is byte-identical to the unsharded file — this is the
 * fleet-run output format.
 */
void writeJsonLines(std::ostream &os, const std::vector<ResultRow> &rows);
void writeJsonLines(std::ostream &os, const SweepResult &sweep);

/** One Table as a single-line JSON object (for JSON Lines streams). */
void writeTableJsonLine(std::ostream &os, const Table &table);

class MetricsRegistry;

/**
 * A registry snapshot as a single-line JSON object
 * ({"<label>": {"name": value, ...}}), name-sorted so equal registry
 * states serialize identically.  Counters render as integers, gauges
 * as shortest-round-trip numbers, histograms as
 * {"count", "sum", "min", "max", "mean"} objects.
 */
void writeMetricsJsonLine(std::ostream &os, const MetricsRegistry &registry,
                          const std::string &label = "metrics");

/**
 * File-backed sink: collects rows and writes one document on flush().
 * Format is chosen by the path suffix: ".csv" writes CSV, ".jsonl"
 * writes JSON Lines (one row per line, shard-concatenation-safe),
 * anything else a pretty JSON array.  Rows added from a SweepResult
 * are annotated with their job's options and coordinates; bare
 * NetworkResults are not.
 */
class ResultSink
{
  public:
    explicit ResultSink(std::string path);

    void add(NetworkResult result);
    void add(const std::vector<NetworkResult> &results);
    void add(const SweepResult &sweep,
             const std::string &experiment = "");
    /** A preformed row (e.g. parsed back by the shard merger). */
    void add(ResultRow row);

    const std::vector<ResultRow> &rows() const { return rows_; }

    /** Write the collected document; fatal() on an unwritable path. */
    void flush() const;

  private:
    std::string path_;
    std::vector<ResultRow> rows_;
};

} // namespace griffin

#endif // GRIFFIN_RUNTIME_RESULT_SINK_HH
