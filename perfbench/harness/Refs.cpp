//===- perfbench/harness/Refs.cpp ------------------------------------------===//

#include "Refs.h"

#include "bench/baselines/XmlLib.h"
#include "stdlib/Reference.h"

#include <algorithm>

namespace pb::refs {

std::string lineCount(const std::string &Text) {
  return std::to_string(std::count(Text.begin(), Text.end(), '\n'));
}

std::string htmlUtf8(const std::string &Text) {
  auto Chars = efc::ref::utf8Decode(Text);
  if (!Chars)
    return "<invalid utf-8 input>";
  auto Out = efc::ref::utf8Encode(efc::ref::antiXssHtmlEncode(*Chars));
  return Out ? *Out : "<unencodable output>";
}

namespace {

uint32_t parseDigits(const char *B, const char *E) {
  uint32_t V = 0;
  for (; B != E; ++B)
    V = V * 10 + uint32_t(*B - '0');
  return V;
}

} // namespace

std::vector<uint32_t> csvColumn(const std::string &Csv, unsigned Col) {
  std::vector<uint32_t> Vals;
  size_t Pos = 0;
  while (Pos < Csv.size()) {
    size_t Eol = Csv.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Csv.size();
    size_t F = Pos;
    for (unsigned C = 0; C < Col; ++C)
      F = Csv.find(',', F) + 1;
    size_t FEnd = Csv.find(',', F);
    Vals.push_back(parseDigits(Csv.data() + F, Csv.data() + FEnd));
    Pos = Eol + 1;
  }
  return Vals;
}

std::vector<uint32_t> xmlValues(const std::string &Doc,
                                const std::string &Query) {
  std::u16string Wide(Doc.begin(), Doc.end()); // the generators write ASCII
  std::vector<uint32_t> Vals;
  auto Root = efc::baselines::parseXmlDom(Wide);
  if (!Root)
    return Vals;
  for (const std::u16string &T :
       efc::baselines::domQuery(**Root, efc::baselines::splitPath(Query))) {
    std::string Narrow(T.begin(), T.end());
    Vals.push_back(parseDigits(Narrow.data(), Narrow.data() + Narrow.size()));
  }
  return Vals;
}

std::vector<uint32_t> digitRuns(const std::string &Text) {
  std::vector<uint32_t> Vals;
  size_t I = 0;
  while (I < Text.size()) {
    if (Text[I] < '0' || Text[I] > '9') {
      ++I;
      continue;
    }
    size_t J = I;
    while (J < Text.size() && Text[J] >= '0' && Text[J] <= '9')
      ++J;
    Vals.push_back(parseDigits(Text.data() + I, Text.data() + J));
    I = J;
  }
  return Vals;
}

std::string aggregate(const std::vector<uint32_t> &Vals,
                      const std::string &Agg, const std::string &Format) {
  std::vector<uint32_t> Out;
  if (Agg == "none") {
    Out = Vals;
  } else if (!Vals.empty()) {
    if (Agg == "max") {
      Out.push_back(*std::max_element(Vals.begin(), Vals.end()));
    } else if (Agg == "min") {
      Out.push_back(*std::min_element(Vals.begin(), Vals.end()));
    } else {
      uint32_t Sum = 0; // wraps like the bv32 register
      for (uint32_t V : Vals)
        Sum += V;
      Out.push_back(Sum / uint32_t(Vals.size()));
    }
  }
  std::string S;
  for (uint32_t V : Out) {
    if (Format == "sql")
      S += "INSERT INTO t VALUES (" + std::to_string(V) + ");\n";
    else
      S += std::to_string(V) + (Format == "lines" ? "\n" : "");
  }
  return S;
}

} // namespace pb::refs
