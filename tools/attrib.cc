/**
 * @file
 * attrib: the trace-reuse attribution report tool (DESIGN.md
 * section 17).
 *
 * Usage: attrib <command> [options]
 *
 *   report FILE [--benchmark NAME]
 *       Read a BENCH_*.json report and render the decanting tables
 *       from its attribution section: the (origin x loop-class)
 *       reuse ledger plus the instruction-type decomposition. With
 *       --benchmark, sum only that benchmark's rows instead of the
 *       whole-report aggregate.
 *
 *   run --benchmark NAME [--seed N] [--max-insts N] [--tc N]
 *       [--pb N] [--prep]
 *       Run NAME through the fast frontend and render its
 *       attribution tables directly — no report file needed.
 *
 * The JSON reader below is deliberately minimal: just enough of
 * RFC 8259 to load the reports this repository writes (objects,
 * arrays, strings with the escapes jsonEscape() emits, numbers,
 * booleans, null). It is not a general-purpose parser.
 *
 * Exit status: 0 on success, 1 on file/config errors (via fatal),
 * 2 on usage errors.
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "telemetry/attrib.hh"
#include "workload/profile.hh"

using namespace tpre;

namespace
{

// --------------------------------------------------------------
// Minimal JSON reader.
// --------------------------------------------------------------

struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    /** Numbers keep their source text so u64() never loses
     *  precision to a double round-trip. */
    std::string number;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }

    std::uint64_t
    u64() const
    {
        if (type != Type::Number)
            fatal("attrib: expected a JSON number, got type %d",
                  static_cast<int>(type));
        return std::strtoull(number.c_str(), nullptr, 10);
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing garbage after the top-level value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        fatal("attrib: JSON parse error at offset %zu: %s", pos_,
              what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consume(const char *literal)
    {
        const std::size_t n = std::strlen(literal);
        if (text_.compare(pos_, n, literal) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    value()
    {
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            if (!consume("null"))
                fail("bad literal");
            return JsonValue{};
        }
        return number();
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            JsonValue key = string();
            expect(':');
            v.object.emplace_back(std::move(key.string), value());
            const char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            const char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    JsonValue
    string()
    {
        expect('"');
        JsonValue v;
        v.type = JsonValue::Type::String;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.string += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("dangling escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': v.string += '"'; break;
              case '\\': v.string += '\\'; break;
              case '/': v.string += '/'; break;
              case 'b': v.string += '\b'; break;
              case 'f': v.string += '\f'; break;
              case 'n': v.string += '\n'; break;
              case 'r': v.string += '\r'; break;
              case 't': v.string += '\t'; break;
              case 'u': {
                // The reports only ever emit \u00XX control-byte
                // escapes; decode the low byte and reject the rest.
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                const std::string hex = text_.substr(pos_, 4);
                pos_ += 4;
                if (hex[0] != '0' || hex[1] != '0')
                    fail("non-latin \\u escape unsupported");
                v.string += static_cast<char>(
                    std::strtoul(hex.c_str(), nullptr, 16));
                break;
              }
              default: fail("unknown escape");
            }
        }
        fail("unterminated string");
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (consume("true"))
            v.boolean = true;
        else if (consume("false"))
            v.boolean = false;
        else
            fail("bad literal");
        return v;
    }

    JsonValue
    number()
    {
        JsonValue v;
        v.type = JsonValue::Type::Number;
        const std::size_t start = pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+'))
            ++pos_;
        if (pos_ == start)
            fail("expected a number");
        v.number = text_.substr(start, pos_ - start);
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

// --------------------------------------------------------------
// JSON attribution object -> AttribTable.
// --------------------------------------------------------------

/** Member @p key of @p obj; a report without it is malformed. */
const JsonValue &
member(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        fatal("attrib: malformed report: no '%s' member", key);
    return *v;
}

std::uint64_t
cellField(const JsonValue &cell, const char *key)
{
    return member(cell, key).u64();
}

/** Rebuild one AttribTable from a renderAttribJson() object. */
AttribTable
tableFromJson(const JsonValue &attrib)
{
    AttribTable table;
    for (std::size_t o = 0; o < kNumOrigins; ++o) {
        const auto origin = static_cast<TraceOrigin>(o);
        const JsonValue &originObj =
            member(attrib, traceOriginName(origin));
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            const JsonValue &cellObj =
                member(originObj, loopClassName(cls));
            AttribCell &cell = table.of(origin, cls);
            cell.builds = cellField(cellObj, "builds");
            cell.hits = cellField(cellObj, "hits");
            cell.firstUses = cellField(cellObj, "first_uses");
            cell.firstUseLatencySum =
                cellField(cellObj, "first_use_latency_sum");
            cell.evictCapacity = cellField(cellObj, "evict_capacity");
            cell.evictRefresh = cellField(cellObj, "evict_refresh");
            cell.evictInvalidate =
                cellField(cellObj, "evict_invalidate");
            cell.evictClear = cellField(cellObj, "evict_clear");
            cell.evictedUnused = cellField(cellObj, "evicted_unused");
            const JsonValue &built = member(cellObj, "inst_built");
            const JsonValue &served = member(cellObj, "inst_served");
            for (std::size_t k = 0; k < kNumInstKinds; ++k) {
                const char *kind =
                    instKindName(static_cast<InstKind>(k));
                cell.instBuilt[k] = cellField(built, kind);
                cell.instServed[k] = cellField(served, kind);
            }
        }
    }
    return table;
}

// --------------------------------------------------------------
// Rendering.
// --------------------------------------------------------------

std::string
pct(std::uint64_t part, std::uint64_t whole)
{
    if (whole == 0)
        return "-";
    return TableReport::num(100.0 * static_cast<double>(part) /
                                static_cast<double>(whole),
                            1) +
           "%";
}

void
renderTables(const AttribTable &table, const std::string &title)
{
    std::uint64_t totalHits = 0;
    for (std::size_t o = 0; o < kNumOrigins; ++o)
        totalHits +=
            table.originSum(static_cast<TraceOrigin>(o)).hits;

    std::printf("\n=== %s ===\n", title.c_str());

    // The reuse ledger: who built what shape of trace, and how
    // much fetch supply each (origin x loop-class) cell earned.
    TableReport reuse({"origin", "loop_class", "builds", "hits",
                       "hit_share", "first_uses", "avg_1st_lat",
                       "evict", "unused"});
    for (std::size_t o = 0; o < kNumOrigins; ++o) {
        const auto origin = static_cast<TraceOrigin>(o);
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            const AttribCell &cell = table.of(origin, cls);
            reuse.addRow(
                {traceOriginName(origin), loopClassName(cls),
                 TableReport::num(cell.builds),
                 TableReport::num(cell.hits),
                 pct(cell.hits, totalHits),
                 TableReport::num(cell.firstUses),
                 cell.firstUses
                     ? TableReport::num(
                           static_cast<double>(
                               cell.firstUseLatencySum) /
                               static_cast<double>(cell.firstUses),
                           1)
                     : "-",
                 TableReport::num(cell.evictions()),
                 TableReport::num(cell.evictedUnused)});
        }
        const AttribCell sum = table.originSum(origin);
        reuse.addRow({traceOriginName(origin), "(all)",
                      TableReport::num(sum.builds),
                      TableReport::num(sum.hits),
                      pct(sum.hits, totalHits),
                      TableReport::num(sum.firstUses),
                      sum.firstUses
                          ? TableReport::num(
                                static_cast<double>(
                                    sum.firstUseLatencySum) /
                                    static_cast<double>(
                                        sum.firstUses),
                                1)
                          : "-",
                      TableReport::num(sum.evictions()),
                      TableReport::num(sum.evictedUnused)});
    }
    std::printf("%s", reuse.render().c_str());

    // The decanting table proper: which instruction types the
    // served (reused) trace content is made of, per cell.
    TableReport kinds({"origin", "loop_class", "served",
                       "cond_br", "ind_br", "call_ret", "ld_st",
                       "alu"});
    for (std::size_t o = 0; o < kNumOrigins; ++o) {
        const auto origin = static_cast<TraceOrigin>(o);
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            const AttribCell &cell = table.of(origin, cls);
            std::uint64_t served = 0;
            for (std::size_t k = 0; k < kNumInstKinds; ++k)
                served += cell.instServed[k];
            std::vector<std::string> row = {
                traceOriginName(origin), loopClassName(cls),
                TableReport::num(served)};
            for (std::size_t k = 0; k < kNumInstKinds; ++k)
                row.push_back(pct(cell.instServed[k], served));
            kinds.addRow(std::move(row));
        }
    }
    std::printf("\ninstruction-type mix of served trace content:\n"
                "%s",
                kinds.render().c_str());
}

// --------------------------------------------------------------
// Commands.
// --------------------------------------------------------------

int
usage()
{
    std::cerr
        << "usage: attrib <command> [options]\n"
        << "  report FILE [--benchmark NAME]   render the "
           "attribution tables of a BENCH_*.json report\n"
        << "  run --benchmark NAME [--seed N] [--max-insts N] "
           "[--tc N] [--pb N] [--prep]\n"
        << "                                   run one experiment "
           "and render its tables\n";
    return 2;
}

int
cmdReport(const std::vector<std::string> &args)
{
    std::string path, benchmark;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--benchmark" && i + 1 < args.size())
            benchmark = args[++i];
        else if (path.empty())
            path = args[i];
        else
            return usage();
    }
    if (path.empty())
        return usage();

    std::ifstream in(path);
    if (!in)
        fatal("attrib: cannot open %s", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    JsonParser parser(text);
    const JsonValue report = parser.parse();

    if (benchmark.empty()) {
        const JsonValue *bench = report.find("bench");
        renderTables(tableFromJson(member(report, "attrib")),
                     bench != nullptr ? bench->string : path);
        return 0;
    }

    // --benchmark: sum the matching rows' tables.
    AttribTable sum;
    std::size_t matched = 0;
    for (const JsonValue &row : member(report, "rows").array) {
        const JsonValue *name = row.find("benchmark");
        if (name == nullptr || name->string != benchmark)
            continue;
        sum.add(tableFromJson(member(row, "attrib")));
        ++matched;
    }
    if (matched == 0)
        fatal("attrib: no rows match benchmark '%s'",
              benchmark.c_str());
    renderTables(sum, benchmark + " (" +
                          TableReport::num(
                              static_cast<std::uint64_t>(matched)) +
                          " rows)");
    return 0;
}

int
cmdRun(const std::vector<std::string> &args)
{
    SimConfig cfg;
    cfg.benchmark.clear();
    cfg.maxInsts = 2'000'000;
    cfg.preconBufferEntries = 256;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const bool hasValue = i + 1 < args.size();
        if (a == "--benchmark" && hasValue) {
            cfg.benchmark = args[++i];
        } else if (a == "--seed" && hasValue) {
            cfg.workloadSeed = static_cast<std::uint64_t>(
                parsePositiveInt(args[++i].c_str(), "--seed"));
        } else if (a == "--max-insts" && hasValue) {
            cfg.maxInsts = static_cast<InstCount>(parsePositiveInt(
                args[++i].c_str(), "--max-insts"));
        } else if (a == "--tc" && hasValue) {
            cfg.traceCacheEntries =
                static_cast<std::size_t>(parsePositiveInt(
                    args[++i].c_str(), "--tc"));
        } else if (a == "--pb" && hasValue) {
            // 0 is meaningful here (preconstruction disabled), so
            // bypass the strictly-positive parser for that case.
            const std::string &v = args[++i];
            cfg.preconBufferEntries =
                v == "0" ? 0
                         : static_cast<std::size_t>(
                               parsePositiveInt(v.c_str(), "--pb"));
        } else if (a == "--prep") {
            cfg.prepEnabled = true;
        } else {
            return usage();
        }
    }
    if (cfg.benchmark.empty())
        return usage();

    // Validate the name up front for a pointed error instead of a
    // mid-run fatal from the workload cache.
    namedProfile(cfg.benchmark, cfg.workloadSeed);

    Simulator sim;
    const SimResult result = sim.run(cfg);
    char title[128];
    std::snprintf(title, sizeof(title),
                  "%s (%llu insts, %zuTC+%zuPB)",
                  cfg.benchmark.c_str(),
                  static_cast<unsigned long long>(
                      result.instructions),
                  cfg.traceCacheEntries, cfg.preconBufferEntries);
    renderTables(result.attrib, title);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "report")
        return cmdReport(args);
    if (command == "run")
        return cmdRun(args);
    return usage();
}
