#include "core/text.hpp"
#include <cctype>

#include <charconv>
#include <vector>

#include "util/contract.hpp"
#include "util/format.hpp"

namespace maton::core {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (std::isspace(static_cast<unsigned char>(s.front())) != 0)) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (std::isspace(static_cast<unsigned char>(s.back())) != 0)) {
    s.remove_suffix(1);
  }
  return s;
}

Status error_at(std::size_t line, const std::string& message) {
  return invalid_argument("line " + std::to_string(line) + ": " + message);
}

Result<ValueCodec> parse_codec(std::string_view name, std::size_t line) {
  if (name == "plain") return ValueCodec::kPlain;
  if (name == "ipv4") return ValueCodec::kIpv4;
  if (name == "ipv4_prefix") return ValueCodec::kIpv4Prefix;
  if (name == "mac") return ValueCodec::kMac;
  if (name == "port") return ValueCodec::kPort;
  return error_at(line, "unknown codec '" + std::string(name) + "'");
}

unsigned default_width(ValueCodec codec) {
  switch (codec) {
    case ValueCodec::kIpv4:
    case ValueCodec::kIpv4Prefix:
      return 32;
    case ValueCodec::kMac:
      return 48;
    case ValueCodec::kPort:
      return 16;
    case ValueCodec::kPlain:
      return 32;
  }
  return 32;
}

Result<Value> parse_integer(std::string_view text, std::size_t line) {
  text = trim(text);
  if (text.empty()) return error_at(line, "empty value");
  int base = 10;
  if (text.starts_with("0x") || text.starts_with("0X")) {
    text.remove_prefix(2);
    base = 16;
  }
  Value v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v, base);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return error_at(line, "malformed integer '" + std::string(text) + "'");
  }
  return v;
}

Result<Value> parse_mac(std::string_view text, std::size_t line) {
  Value mac = 0;
  int octets = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t colon = text.find(':', pos);
    const std::string_view part =
        text.substr(pos, colon == std::string_view::npos ? std::string_view::npos
                                                         : colon - pos);
    unsigned byte = 0;
    const auto [end, ec] = std::from_chars(
        part.data(), part.data() + part.size(), byte, 16);
    if (ec != std::errc{} || end != part.data() + part.size() || byte > 255) {
      return error_at(line, "malformed MAC octet '" + std::string(part) + "'");
    }
    mac = (mac << 8) | byte;
    ++octets;
    if (colon == std::string_view::npos) break;
    pos = colon + 1;
  }
  if (octets != 6) return error_at(line, "MAC needs six octets");
  return mac;
}

Result<Value> parse_value(std::string_view text, ValueCodec codec,
                          std::size_t line) {
  text = trim(text);
  switch (codec) {
    case ValueCodec::kIpv4: {
      const auto addr = parse_ipv4(text);
      if (!addr.is_ok()) return error_at(line, addr.status().message());
      return Value{addr.value()};
    }
    case ValueCodec::kIpv4Prefix: {
      const std::size_t slash = text.find('/');
      if (slash == std::string_view::npos) {
        return error_at(line, "ipv4_prefix value needs addr/len");
      }
      const auto addr = parse_ipv4(text.substr(0, slash));
      if (!addr.is_ok()) return error_at(line, addr.status().message());
      const auto len = parse_integer(text.substr(slash + 1), line);
      if (!len.is_ok()) return len.status();
      if (len.value() > 32) return error_at(line, "prefix length > 32");
      return (Value{addr.value()} << 8) | len.value();
    }
    case ValueCodec::kMac:
      return parse_mac(text, line);
    case ValueCodec::kPlain:
    case ValueCodec::kPort:
      return parse_integer(text, line);
  }
  return error_at(line, "unhandled codec");
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = text.find(sep, pos);
    if (next == std::string_view::npos) {
      parts.push_back(text.substr(pos));
      break;
    }
    parts.push_back(text.substr(pos, next - pos));
    pos = next + 1;
  }
  return parts;
}

}  // namespace

Result<ParsedSpec> parse_spec(std::string_view text) {
  std::string name = "table";
  Schema schema;
  std::vector<Row> rows;
  FdSet model_fds;
  bool in_table = false;
  bool saw_table = false;
  bool closed = false;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    if (closed) return error_at(line_no, "content after closing '}'");

    if (!in_table) {
      if (!line.starts_with("table ")) {
        return error_at(line_no, "expected 'table <name> {'");
      }
      line.remove_prefix(6);
      if (!line.ends_with("{")) {
        return error_at(line_no, "expected '{' ending the table header");
      }
      line.remove_suffix(1);
      name = std::string(trim(line));
      if (name.empty()) return error_at(line_no, "table needs a name");
      in_table = true;
      saw_table = true;
      continue;
    }

    if (line == "}") {
      closed = true;
      in_table = false;
      continue;
    }

    if (!line.ends_with(";")) {
      return error_at(line_no, "missing ';'");
    }
    line.remove_suffix(1);
    line = trim(line);

    const bool is_match = line.starts_with("match ");
    const bool is_action = line.starts_with("action ");
    if (is_match || is_action) {
      if (!rows.empty()) {
        return error_at(line_no, "column declared after entries");
      }
      line.remove_prefix(is_match ? 6 : 7);
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        return error_at(line_no, "expected '<name>: <codec>'");
      }
      const std::string attr_name{trim(line.substr(0, colon))};
      std::string_view codec_part = trim(line.substr(colon + 1));
      // Optional explicit width: "<codec>/<bits>".
      unsigned width = 0;
      if (const std::size_t slash = codec_part.find('/');
          slash != std::string_view::npos) {
        const auto bits =
            parse_integer(codec_part.substr(slash + 1), line_no);
        if (!bits.is_ok()) return bits.status();
        if (bits.value() == 0 || bits.value() > 64) {
          return error_at(line_no, "width must be in [1, 64]");
        }
        width = static_cast<unsigned>(bits.value());
        codec_part = trim(codec_part.substr(0, slash));
      }
      const auto codec = parse_codec(codec_part, line_no);
      if (!codec.is_ok()) return codec.status();
      if (schema.find(attr_name).has_value()) {
        return error_at(line_no, "duplicate column '" + attr_name + "'");
      }
      schema.add({attr_name,
                  is_match ? AttrKind::kMatch : AttrKind::kAction,
                  codec.value(),
                  width == 0 ? default_width(codec.value()) : width});
      continue;
    }

    // Model dependency: "fd <cols> -> <cols>".
    if (line.starts_with("fd ")) {
      line.remove_prefix(3);
      const std::size_t fd_arrow = line.find("->");
      if (fd_arrow == std::string_view::npos) {
        return error_at(line_no, "fd declaration needs '->'");
      }
      auto parse_cols = [&](std::string_view part,
                            AttrSet& out) -> Status {
        for (const std::string_view col : split(part, ',')) {
          const auto idx = schema.find(trim(col));
          if (!idx.has_value()) {
            return error_at(line_no, "fd names unknown column '" +
                                         std::string(trim(col)) + "'");
          }
          out.insert(*idx);
        }
        return Status::ok();
      };
      AttrSet lhs;
      AttrSet rhs;
      if (Status st = parse_cols(trim(line.substr(0, fd_arrow)), lhs);
          !st.is_ok()) {
        return st;
      }
      if (Status st = parse_cols(trim(line.substr(fd_arrow + 2)), rhs);
          !st.is_ok()) {
        return st;
      }
      model_fds.add(lhs, rhs);
      continue;
    }

    // Entry: "<match values> -> <action values>".
    const std::size_t arrow = line.find("->");
    const std::size_t match_count = schema.match_set().size();
    const std::size_t action_count = schema.action_set().size();
    std::vector<std::string_view> match_parts;
    std::vector<std::string_view> action_parts;
    if (arrow == std::string_view::npos) {
      if (action_count != 0) return error_at(line_no, "missing '->'");
      match_parts = split(line, ',');
    } else {
      const std::string_view lhs = trim(line.substr(0, arrow));
      const std::string_view rhs = trim(line.substr(arrow + 2));
      if (!lhs.empty()) match_parts = split(lhs, ',');
      if (!rhs.empty()) action_parts = split(rhs, ',');
    }
    if (match_parts.size() != match_count ||
        action_parts.size() != action_count) {
      return error_at(line_no, "entry arity mismatch: expected " +
                                   std::to_string(match_count) + " -> " +
                                   std::to_string(action_count));
    }

    Row row(schema.size(), 0);
    std::size_t m = 0;
    for (const std::size_t c : schema.match_set()) {
      const auto v = parse_value(match_parts[m++], schema.at(c).codec,
                                 line_no);
      if (!v.is_ok()) return v.status();
      row[c] = v.value();
    }
    std::size_t a = 0;
    for (const std::size_t c : schema.action_set()) {
      const auto v = parse_value(action_parts[a++], schema.at(c).codec,
                                 line_no);
      if (!v.is_ok()) return v.status();
      row[c] = v.value();
    }
    rows.push_back(std::move(row));
  }

  if (!saw_table) return invalid_argument("no table definition found");
  if (!closed) return invalid_argument("missing closing '}'");
  if (schema.empty()) return invalid_argument("table has no columns");

  Table table(std::move(name), std::move(schema));
  for (const Row& row : rows) table.add_row(row);
  // Declared dependencies must actually hold in the instance, otherwise
  // the spec contradicts its own data.
  for (const Fd& fd : model_fds.fds()) {
    if (!fd_holds(table, fd)) {
      return invalid_argument("declared dependency " +
                              to_string(fd, table.schema()) +
                              " does not hold in the table's entries");
    }
  }
  return ParsedSpec{std::move(table), std::move(model_fds)};
}

Result<Table> parse_table(std::string_view text) {
  auto spec = parse_spec(text);
  if (!spec.is_ok()) return spec.status();
  return std::move(spec).value().table;
}

namespace {

std::string_view codec_name(ValueCodec codec) {
  switch (codec) {
    case ValueCodec::kPlain: return "plain";
    case ValueCodec::kIpv4: return "ipv4";
    case ValueCodec::kIpv4Prefix: return "ipv4_prefix";
    case ValueCodec::kMac: return "mac";
    case ValueCodec::kPort: return "port";
  }
  return "plain";
}

}  // namespace

std::string to_text(const Table& table) {
  std::string out = "table " + table.name() + " {\n";
  const Schema& schema = table.schema();
  for (const Attribute& attr : schema.attributes()) {
    out += "  ";
    out += attr.kind == AttrKind::kMatch ? "match " : "action ";
    out += attr.name;
    out += ": ";
    out += codec_name(attr.codec);
    if (attr.width_bits != default_width(attr.codec)) {
      out += "/" + std::to_string(attr.width_bits);
    }
    out += ";\n";
  }
  out += "\n";
  for (const RowView row : table.rows()) {
    out += "  ";
    bool first = true;
    for (const std::size_t c : schema.match_set()) {
      if (!first) out += ", ";
      first = false;
      out += format_value(schema.at(c), row[c]);
    }
    if (!schema.action_set().empty()) {
      out += " -> ";
      first = true;
      for (const std::size_t c : schema.action_set()) {
        if (!first) out += ", ";
        first = false;
        out += format_value(schema.at(c), row[c]);
      }
    }
    out += ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace maton::core
