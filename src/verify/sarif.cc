#include "verify/sarif.hh"

#include "common/json.hh"
#include "common/strutil.hh"
#include "verify/catalog.hh"

namespace hscd {
namespace verify {

namespace {

const char *
sarifLevel(Severity s)
{
    switch (s) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "none";
}

std::string
quoted(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

} // namespace

std::string
renderSarif(const std::vector<DiagnosticEngine> &programs,
            const obs::Provenance &prov)
{
    std::string out;
    out += "{\n";
    out += "  \"$schema\": \"https://json.schemastore.org/"
           "sarif-2.1.0.json\",\n";
    out += "  \"version\": \"2.1.0\",\n";
    out += "  \"runs\": [\n";
    out += "    {\n";

    // Tool + the full catalog as the rule table. Emitting every
    // cataloged ID (fired or not) keeps ruleIndex values stable.
    out += "      \"tool\": {\n";
    out += "        \"driver\": {\n";
    out += "          \"name\": \"hscd_lint\",\n";
    out += "          \"informationUri\": "
           "\"https://example.invalid/hscd\",\n";
    out += "          \"rules\": [\n";
    std::size_t nrules = 0;
    const CatalogEntry *cat = diagnosticCatalog(nrules);
    for (std::size_t i = 0; i < nrules; ++i) {
        const CatalogEntry &e = cat[i];
        out += "            {\n";
        out += csprintf("              \"id\": %s,\n",
                        quoted(e.id));
        out += csprintf("              \"name\": %s,\n",
                        quoted(e.name));
        out += csprintf("              \"shortDescription\": "
                        "{\"text\": %s},\n",
                        quoted(e.summary));
        out += csprintf("              \"defaultConfiguration\": "
                        "{\"level\": \"%s\"}\n",
                        sarifLevel(e.severity));
        out += i + 1 < nrules ? "            },\n" : "            }\n";
    }
    out += "          ]\n";
    out += "        }\n";
    out += "      },\n";

    // Results, in input order across targets. Locations are logical:
    // the HIR carries no files, so a site is program::proc::where.
    out += "      \"results\": [\n";
    std::size_t total = 0;
    for (const DiagnosticEngine &d : programs)
        total += d.diagnostics().size();
    std::size_t emitted = 0;
    for (const DiagnosticEngine &d : programs) {
        for (const Diagnostic &diag : d.diagnostics()) {
            std::string fqn = d.programName();
            if (!diag.loc.proc.empty())
                fqn += "::" + diag.loc.proc;
            if (!diag.loc.where.empty())
                fqn += "::" + diag.loc.where;
            out += "        {\n";
            out += csprintf("          \"ruleId\": %s,\n",
                            quoted(diag.id));
            out += csprintf("          \"ruleIndex\": %d,\n",
                            catalogIndex(diag.id));
            out += csprintf("          \"level\": \"%s\",\n",
                            sarifLevel(diag.severity));
            out += csprintf("          \"message\": {\"text\": %s},\n",
                            quoted(diag.message));
            out += "          \"locations\": [\n";
            out += "            {\n";
            out += "              \"logicalLocations\": [\n";
            out += "                {\n";
            out += csprintf("                  \"name\": %s,\n",
                            quoted(diag.loc.where.empty()
                                       ? diag.loc.proc
                                       : diag.loc.where));
            out += csprintf("                  \"fullyQualifiedName\": "
                            "%s,\n",
                            quoted(fqn));
            out += "                  \"kind\": \"member\"\n";
            out += "                }\n";
            out += "              ]\n";
            out += "            }\n";
            out += "          ],\n";
            out += "          \"properties\": {\n";
            out += csprintf("            \"program\": %s,\n",
                            quoted(d.programName()));
            if (diag.loc.ref != hir::invalidRef)
                out += csprintf("            \"refId\": %d,\n",
                                diag.loc.ref);
            out += csprintf("            \"severity\": \"%s\"\n",
                            severityName(diag.severity));
            out += "          }\n";
            ++emitted;
            out += emitted < total ? "        },\n" : "        }\n";
        }
    }
    out += "      ],\n";
    out += "      \"columnKind\": \"utf16CodeUnits\",\n";

    // Provenance, minus the jobs field: SARIF output is part of the
    // byte-identical-at-any---jobs contract.
    out += "      \"properties\": {\n";
    out += csprintf("        \"schema\": %s,\n",
                    quoted(csprintf("%s/%d", prov.schema,
                                    prov.version)));
    out += csprintf("        \"tool\": %s,\n", quoted(prov.tool));
    out += csprintf("        \"configHash\": \"%016x\",\n",
                    prov.configHash);
    out += csprintf("        \"fault\": %s\n", quoted(prov.faultSpec));
    out += "      }\n";
    out += "    }\n";
    out += "  ]\n";
    out += "}\n";
    return out;
}

} // namespace verify
} // namespace hscd
